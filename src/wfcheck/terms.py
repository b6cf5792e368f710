"""Message terms: atoms, variables, concatenation and symmetric encryption.

Terms are immutable trees. Concatenation is n-ary and kept flattened, so
associativity never has to be handled equationally. Unification is
first-order and purely syntactic (perfect encryption): renamed copies of
role atoms act as kind-restricted parameters that may match any concrete
atom of the same kind, while ordinary variables match arbitrary terms.

Display syntax: atoms as identifiers (optionally ``name_copy^session``),
variables with a leading ``?``, concatenation with ``.`` and encryption as
``{body}key``. The narration grammar, which names declared atoms only, is
in ``protocol``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Optional, Union


_set = object.__setattr__


class Message:
    """Base class for every term node. Terms are immutable; each node class
    sets its ``_fields`` once, and compares and hashes by its type and those
    fields, so ``Identity("X") != Variable("X")`` although the two hash
    alike. Every atom, variable and compound term computes its hash once,
    when it is built, and keeps it beside its fields, and equality rejects
    on unequal hashes first. Its printed form is computed once too, on the
    first ``format_message``, and kept in a ``_text`` slot. Copies and
    unpickled values rebuild the hash from the fields and print afresh, so
    neither is carried from one process to another."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"terms are immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _replace(self, **changes) -> "Message":
        """A copy of the term with the given fields changed."""
        return type(self)(**{**{f: getattr(self, f) for f in self._fields}, **changes})

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __str__(self):
        return format_message(self)


class Atom(Message):
    """Base class for atomic names (identities, nonces, keys)."""

    __slots__ = ()


class Identity(Atom):
    _fields = ("name", "copy")
    __slots__ = ("name", "copy", "_hash", "_text")

    def __init__(self, name: str, copy: Optional[int] = None):
        _set(self, "name", name)
        _set(self, "copy", copy)
        _set(self, "_hash", hash((name, copy)))

    def __eq__(self, other):
        return type(self) is type(other) and self._hash == other._hash and (
            self.name == other.name and self.copy == other.copy
        )

    def __hash__(self):
        return self._hash


class _SessionAtom(Atom):
    """A nonce or a key: a declared name, a session tag and a rename index."""

    _fields = ("name", "session", "copy")
    __slots__ = ("name", "session", "copy", "_hash", "_text")

    def __init__(self, name: str, session: Optional[str] = None, copy: Optional[int] = None):
        _set(self, "name", name)
        _set(self, "session", session)
        _set(self, "copy", copy)
        _set(self, "_hash", hash((name, session, copy)))

    def __eq__(self, other):
        return type(self) is type(other) and self._hash == other._hash and (
            self.name == other.name and self.session == other.session and self.copy == other.copy
        )

    def __hash__(self):
        return self._hash


class Nonce(_SessionAtom):
    __slots__ = ()


class SymKey(_SessionAtom):
    __slots__ = ()


class Variable(Message):
    """An unknown component of a received message."""

    # an identity's fields and methods; the class check keeps the two apart
    _fields = ("name", "copy")
    __slots__ = ("name", "copy", "_hash", "_text")
    __init__, __eq__, __hash__ = Identity.__init__, Identity.__eq__, Identity.__hash__


class Concat(Message):
    """Flattened, order-preserving concatenation of two or more parts."""

    _fields = ("parts",)
    __slots__ = ("parts", "_hash", "_text")

    def __init__(self, parts: tuple[Message, ...]):
        if len(parts) < 2:
            raise ValueError("concatenation needs at least two parts")
        if any(isinstance(p, Concat) for p in parts):
            raise ValueError("concatenation must be flattened")
        _set(self, "parts", parts)
        _set(self, "_hash", hash((parts,)))

    def __eq__(self, other):
        return type(self) is type(other) and self._hash == other._hash and (
            self.parts == other.parts
        )

    def __hash__(self):
        return self._hash


class Enc(Message):
    """Encryption of a body under an atomic symmetric key."""

    _fields = ("body", "key")
    __slots__ = ("body", "key", "_hash", "_text")

    def __init__(self, body: Message, key: Message):
        _set(self, "body", body)
        _set(self, "key", key)
        _set(self, "_hash", hash((body, key)))

    def __eq__(self, other):
        return type(self) is type(other) and self._hash == other._hash and (
            (self.body, self.key) == (other.body, other.key)
        )

    def __hash__(self):
        return self._hash


Target = Union[Atom, Variable]


def concat(parts: Iterable[Message]) -> Message:
    """Build a flattened concatenation; a single part is returned as it is."""
    flat: list[Message] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def leaves(m: Message) -> list[Message]:
    """The atoms and variables of ``m``, left to right, body before key."""
    out: list[Message] = []
    stack = [m]
    while stack:
        t = stack.pop()
        if isinstance(t, Concat):
            stack.extend(reversed(t.parts))
        elif isinstance(t, Enc):
            stack.append(t.key)
            stack.append(t.body)
        else:
            out.append(t)
    return out


def map_leaves(m: Message, fn: Callable[[Message], Message]) -> Message:
    """Rebuild ``m`` with every atom and variable replaced by ``fn`` of it.

    Leaves are visited in ``leaves`` order; concatenations are rebuilt with
    ``concat``, so they stay flat.
    """
    if isinstance(m, (Atom, Variable)):
        return fn(m)
    if isinstance(m, Concat):
        return concat([map_leaves(p, fn) for p in m.parts])
    if isinstance(m, Enc):
        return Enc(map_leaves(m.body, fn), map_leaves(m.key, fn))
    return m


def vars_of(m: Message) -> frozenset[Variable]:
    """All variables occurring in ``m``."""
    return frozenset([t for t in leaves(m) if isinstance(t, Variable)])


def rename_apart(m: Message, tag: int) -> Message:
    """Stamp every atom and variable with the rename index ``tag``, rebuilding
    each node by its class; a leaf stays a leaf, so concatenations stay flat.
    Terms renamed with distinct tags share no variables or parameters."""
    cls = type(m)
    if cls is Concat:
        return Concat(tuple([rename_apart(p, tag) for p in m.parts]))
    if cls is Enc:
        return Enc(rename_apart(m.body, tag), rename_apart(m.key, tag))
    if cls is Nonce or cls is SymKey:
        return cls(m.name, m.session, tag)
    return cls(m.name, tag)


def canonical_form(m: Message) -> str:
    """A display form invariant under renaming of variables and parameters,
    printed in one walk with no renamed term built: rename indices are
    erased and variables print as ``?V_<n>`` by first occurrence, so two
    patterns are duplicates exactly when their canonical forms coincide.
    The walk is the module-level ``_form``, which takes the numbering, so a
    call leaves no reference cycle behind."""
    return _form(m, {})


def _form(t: Message, numbers: dict[Variable, int]) -> str:
    """The canonical form of ``t``, numbering its variables on from ``numbers``."""
    cls = type(t)
    if cls is Concat:
        return ".".join([_form(p, numbers) for p in t.parts])
    if cls is Enc:
        return "{" + _form(t.body, numbers) + "}" + _form(t.key, numbers)
    if cls is Variable:
        return f"?V_{numbers.setdefault(t, len(numbers))}"
    if t.copy is None:
        return format_message(t)
    return _format_atomish(t.name, None, getattr(t, "session", None))


# ---------------------------------------------------------------------------
# Substitutions

Substitution = Mapping[Union[Variable, Atom], Message]


def apply(sigma: Substitution, m: Message) -> Message:
    """Homomorphic replacement of variables and parameters through
    ``map_leaves``: flattening is kept, and every compound term is rebuilt."""
    return map_leaves(m, lambda t: sigma.get(t, t))


def _head(t: Message, sol: dict) -> Message:
    """Follow bound leaves; re-flatten a concatenation with bound parts, as
    applying the solution would."""
    while t in sol:
        t = sol[t]
    if type(t) is Concat:
        for p in t.parts:
            if p in sol:
                return concat([_head(q, sol) for q in t.parts])
    return t


def _resolve(t: Message, sol: dict) -> Message:
    if isinstance(t, (Atom, Variable)):
        return _resolve(sol[t], sol) if t in sol else t
    if any(leaf in sol for leaf in leaves(t)):
        return map_leaves(t, lambda leaf: _resolve(leaf, sol))
    return t  # nothing to substitute: the term as it is, with its hash


def unify(left: Message, right: Message) -> Optional[dict]:
    """Most general syntactic unifier of two terms, or None.

    Variables bind to arbitrary terms (with occurs check); parameters bind
    to atoms of the same kind only. When both sides are variables or both
    are parameters, the left one is bound, so unifying a renamed pattern
    against a sent role message orients bindings pattern-to-message.

    Bindings are stored as found and may mention leaves bound later; a
    popped pair is resolved only at its top (``_head``: it follows bound
    leaves and re-flattens a concatenation with bound parts), and every
    value is resolved once, on return.

    Two concatenations of unequal length with a variable among their parts
    are deferred, not failed, since a later binding may make the lengths
    equal. When the pairs run out, the deferred ones are retried if a
    binding was made since the first of them was deferred; otherwise
    unification fails. Each round of retries needs a new binding and each
    leaf is bound at most once, so the retries end. So the answer does not
    depend on the order of concatenation parts, but unification modulo
    associativity stays incomplete: a variable is never split across
    parts, so ``?X.?Y`` against ``A.B.C`` fails.
    """
    sol: dict = {}
    stack: list[tuple[Message, Message]] = [(left, right)]
    deferred: list[tuple[Message, Message]] = []
    while stack or deferred:
        if not stack:  # retry only if a binding since the deferral can change a length
            if len(sol) == bound_at_deferral:
                return None
            stack, deferred = deferred, []
            continue
        s, t = stack.pop()
        s, t = _head(s, sol), _head(t, sol)
        if s == t:
            continue
        s_type, t_type = type(s), type(t)
        if s_type is Variable or t_type is Variable:
            var, term = (s, t) if s_type is Variable else (t, s)
            if not isinstance(term, (Atom, Variable)) and var in vars_of(_resolve(term, sol)):
                return None
            sol[var] = term
        elif s_type is Concat:
            if t_type is not Concat:
                return None
            if len(s.parts) != len(t.parts):
                if Variable not in map(type, s.parts + t.parts):
                    return None
                if not deferred:
                    bound_at_deferral = len(sol)
                deferred.append((s, t))
                continue
            stack.extend(zip(s.parts, t.parts))
        elif s_type is Enc:
            if t_type is not Enc:
                return None
            stack.append((s.key, t.key))
            stack.append((s.body, t.body))
        elif s_type is not t_type:
            return None
        elif s.copy is not None:  # two atoms of one kind: a parameter binds
            sol[s] = t
        elif t.copy is not None:
            sol[t] = s
        else:
            return None
    return {k: _resolve(v, sol) for k, v in sol.items()}


# ---------------------------------------------------------------------------
# Printer

def _format_atomish(name: str, copy: Optional[int], session: Optional[str]) -> str:
    out = name
    if copy is not None:
        out += f"_{copy}"
    if session is not None:
        out += f"^{session}"
    return out


def format_message(m: Message) -> str:
    """The printed form of ``m``, computed on its first print and kept on the term."""
    text = getattr(m, "_text", None)
    if text is not None:
        return text
    if isinstance(m, Identity):
        text = _format_atomish(m.name, m.copy, None)
    elif isinstance(m, (Nonce, SymKey)):
        text = _format_atomish(m.name, m.copy, m.session)
    elif isinstance(m, Variable):
        text = "?" + _format_atomish(m.name, m.copy, None)
    elif isinstance(m, Concat):
        text = ".".join(format_message(p) for p in m.parts)
    elif isinstance(m, Enc):
        text = "{" + format_message(m.body) + "}" + format_message(m.key)
    else:
        raise TypeError(f"not a message: {m!r}")
    _set(m, "_text", text)
    return text


def format_substitution(sigma: Substitution) -> str:
    items = sorted((format_message(k), format_message(v)) for k, v in sigma.items())
    return "{" + ", ".join(f"{k} -> {v}" for k, v in items) + "}"
