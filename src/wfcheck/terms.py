"""Message terms: atoms, variables, concatenation and symmetric encryption.

Terms are immutable trees. Concatenation is n-ary and kept flattened, so
associativity never has to be handled equationally. Unification is
first-order and purely syntactic (perfect encryption): renamed copies of
role atoms act as kind-restricted parameters that may match any concrete
atom of the same kind, while ordinary variables match arbitrary terms.

The printer and parser round-trip bit-exactly. Display syntax: atoms as
identifiers (optionally ``name_copy^session``), variables with a leading
``?``, concatenation with ``.``, encryption as ``{body}key`` and the
empty message as the single character ``ε``.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import ParseError


_set = object.__setattr__


class Message:
    """Base class for every term node. Terms are immutable; each node class
    sets its ``_fields`` once, and compares and hashes by its type and those
    fields, so ``Identity("X") != Variable("X")``."""

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
    _fields = __slots__ = ("name", "copy")

    def __init__(self, name: str, copy: Optional[int] = None):
        _set(self, "name", name)
        _set(self, "copy", copy)

    def __eq__(self, other):
        return type(self) is type(other) and (self.name, self.copy) == (other.name, other.copy)

    def __hash__(self):
        return hash((self.name, self.copy))


class _SessionAtom(Atom):
    """A nonce or a key: a declared name, a session tag and a rename index."""

    _fields = __slots__ = ("name", "session", "copy")

    def __init__(self, name: str, session: Optional[str] = None, copy: Optional[int] = None):
        _set(self, "name", name)
        _set(self, "session", session)
        _set(self, "copy", copy)

    def __eq__(self, other):
        return type(self) is type(other) and (
            (self.name, self.session, self.copy) == (other.name, other.session, other.copy)
        )

    def __hash__(self):
        return hash((self.name, self.session, self.copy))


class Nonce(_SessionAtom):
    __slots__ = ()


class SymKey(_SessionAtom):
    __slots__ = ()


class Variable(Message):
    """An unknown component of a received message."""

    # an identity's fields and methods; the class check keeps the two apart
    _fields = __slots__ = ("name", "copy")
    __init__, __eq__, __hash__ = Identity.__init__, Identity.__eq__, Identity.__hash__


class Concat(Message):
    """Flattened, order-preserving concatenation of two or more parts."""

    _fields = __slots__ = ("parts",)

    def __init__(self, parts: tuple[Message, ...]):
        if len(parts) < 2:
            raise ValueError("concatenation needs at least two parts")
        if any(isinstance(p, Concat) for p in parts):
            raise ValueError("concatenation must be flattened")
        _set(self, "parts", parts)

    def __eq__(self, other):
        return type(self) is type(other) and self.parts == other.parts

    def __hash__(self):
        return hash((self.parts,))


class Enc(Message):
    """Encryption of a body under an atomic symmetric key."""

    _fields = __slots__ = ("body", "key")

    def __init__(self, body: Message, key: Message):
        _set(self, "body", body)
        _set(self, "key", key)

    def __eq__(self, other):
        return type(self) is type(other) and (self.body, self.key) == (other.body, other.key)

    def __hash__(self):
        return hash((self.body, self.key))


class _Empty(Message):
    __slots__ = ()

    def __repr__(self):
        return "EMPTY"


#: The vanished message produced by deriving away every component.
EMPTY = _Empty()

Target = Union[Atom, Variable]


def concat(parts: Iterable[Message]) -> Message:
    """Build a flattened concatenation, absorbing empty components."""
    flat: list[Message] = []
    for p in parts:
        if p is EMPTY:
            continue
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def leaves(m: Message) -> list[Message]:
    """The atoms, variables and ε of ``m``, left to right, body before key."""
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
    ``concat``, so flattening and absorption of ε are kept.
    """
    if isinstance(m, (Atom, Variable)):
        return fn(m)
    if isinstance(m, Concat):
        return concat([map_leaves(p, fn) for p in m.parts])
    if isinstance(m, Enc):
        return Enc(map_leaves(m.body, fn), map_leaves(m.key, fn))
    return m


def atoms_of(m: Message) -> frozenset[Atom]:
    """All atoms occurring anywhere in ``m``, including key positions."""
    return frozenset([t for t in leaves(m) if isinstance(t, Atom)])


def vars_of(m: Message) -> frozenset[Variable]:
    """All variables occurring in ``m``."""
    return frozenset([t for t in leaves(m) if isinstance(t, Variable)])


def ordered_atoms(m: Message) -> tuple[Atom, ...]:
    """Atoms in first-occurrence order (used for deterministic reports)."""
    return tuple(dict.fromkeys([t for t in leaves(m) if isinstance(t, Atom)]))


def ordered_vars(m: Message) -> tuple[Variable, ...]:
    return tuple(dict.fromkeys([t for t in leaves(m) if isinstance(t, Variable)]))


def is_param(a: Message) -> bool:
    """Renamed copies of role atoms behave as kind-restricted parameters."""
    return isinstance(a, Atom) and a.copy is not None


def _erase_copy(t: Message) -> Message:
    return t._replace(copy=None) if t.copy is not None else t


def rename_apart(m: Message, tag: int) -> Message:
    """Stamp every atom and variable with the rename index ``tag``.

    Callers are responsible for issuing distinct tags; terms renamed with
    different tags share no variables or parameters.
    """
    return map_leaves(m, lambda t: t._replace(copy=tag))


def canonical_form(m: Message) -> str:
    """A display form invariant under renaming of variables and parameters.

    Rename indices are erased and variables are numbered by first
    occurrence, so two patterns are duplicates exactly when their
    canonical forms coincide.
    """
    mapping: dict[Variable, Variable] = {}

    def canon(t: Message) -> Message:
        if not isinstance(t, Variable):
            return _erase_copy(t)
        if t not in mapping:
            mapping[t] = Variable("V", len(mapping))
        return mapping[t]

    return format_message(map_leaves(m, canon))


# ---------------------------------------------------------------------------
# Substitutions

Substitution = Mapping[Union[Variable, Atom], Message]


def apply(sigma: Substitution, m: Message) -> Message:
    """Homomorphic replacement of variables and parameters; flattening kept."""
    if not sigma:
        return m
    if isinstance(m, (Variable, Atom)):  # the common case inside unify
        return sigma.get(m, m)
    return map_leaves(m, lambda t: sigma.get(t, t))


def unify(left: Message, right: Message) -> Optional[dict]:
    """Most general syntactic unifier of two terms, or None.

    Variables bind to arbitrary terms (with occurs check); parameters bind
    to atoms of the same kind only. When both sides are variables or both
    are parameters, the left one is bound, so unifying a renamed pattern
    against a sent role message orients bindings pattern-to-message.

    Bindings are stored as found and may mention leaves bound later; a
    popped pair is resolved only at its top (``head``), and every value is
    resolved once, on return.
    """
    sol: dict = {}
    stack: list[tuple[Message, Message]] = [(left, right)]

    def head(t: Message) -> Message:
        # follow bound leaves; re-flatten a concatenation with bound parts,
        # as applying the solution would
        while isinstance(t, (Atom, Variable)) and t in sol:
            t = sol[t]
        if isinstance(t, Concat):
            for p in t.parts:
                if isinstance(p, (Atom, Variable)) and p in sol:
                    return concat([head(q) for q in t.parts])
        return t

    def resolve(t: Message) -> Message:
        if isinstance(t, (Atom, Variable)):
            return resolve(sol[t]) if t in sol else t
        return map_leaves(t, resolve)

    while stack:
        s, t = stack.pop()
        if sol:
            s = head(s)
            t = head(t)
        if s == t:
            continue
        if isinstance(s, Variable) or isinstance(t, Variable):
            var, term = (s, t) if isinstance(s, Variable) else (t, s)
            if not isinstance(term, (Atom, Variable)) and var in vars_of(resolve(term)):
                return None
            sol[var] = term
        elif isinstance(s, Atom) and isinstance(t, Atom):
            if is_param(s) and type(s) is type(t):
                sol[s] = t
            elif is_param(t) and type(t) is type(s):
                sol[t] = s
            else:
                return None
        elif isinstance(s, Concat) and isinstance(t, Concat):
            if len(s.parts) != len(t.parts):
                return None
            stack.extend(zip(s.parts, t.parts))
        elif isinstance(s, Enc) and isinstance(t, Enc):
            stack.append((s.key, t.key))
            stack.append((s.body, t.body))
        else:
            return None
    return {k: resolve(v) for k, v in sol.items()}


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
    if m is EMPTY:
        return "ε"
    if isinstance(m, Identity):
        return _format_atomish(m.name, m.copy, None)
    if isinstance(m, (Nonce, SymKey)):
        return _format_atomish(m.name, m.copy, m.session)
    if isinstance(m, Variable):
        return "?" + _format_atomish(m.name, m.copy, None)
    if isinstance(m, Concat):
        return ".".join(format_message(p) for p in m.parts)
    if isinstance(m, Enc):
        return "{" + format_message(m.body) + "}" + format_message(m.key)
    raise TypeError(f"not a message: {m!r}")


def format_substitution(sigma: Substitution) -> str:
    items = sorted((format_message(k), format_message(v)) for k, v in sigma.items())
    return "{" + ", ".join(f"{k} -> {v}" for k, v in items) + "}"


# ---------------------------------------------------------------------------
# Tokenizer and parser (shared with the narration DSL)

#: Deepest ``{...}key`` nesting the parser accepts. The analysis recurses
#: over terms (equality and hashing descend into nested terms), so a bound
#: keeps every accepted payload far from the interpreter's recursion limit.
MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrow>->)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_^]*)"
    r"|(?P<eps>ε)"
    r"|(?P<punct>[{}.:?])"
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        chunk = match.group()
        if kind not in ("ws", "comment"):
            tok_kind = chunk if kind == "punct" else kind
            tokens.append(Token(tok_kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = match.end()
    return tokens


class TokenStream:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.end_line = tokens[-1].line if tokens else 1

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end_line)
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.line, tok.column)
        return tok


def split_atom_name(text: str) -> tuple[str, Optional[int], Optional[str]]:
    """Split a printed identifier into (base, copy index, session tag)."""
    session = None
    if "^" in text:
        text, session = text.split("^", 1)
    copy = None
    if "_" in text:
        text, idx = text.rsplit("_", 1)
        copy = int(idx)
    return text, copy, session


AtomResolver = Callable[[str, Token], Atom]


def parse_message_tokens(
    stream: TokenStream, resolve: AtomResolver, depth: int = 0
) -> Message:
    """Parse ``term ('.' term)*`` where term is an atom, variable or {msg}key.

    ``depth`` counts the encryptions around the message; one nested deeper
    than ``MAX_NESTING`` is a ``ParseError`` at its opening brace. Only a
    symmetric key may encrypt; any other key is a ``ParseError`` at the key.
    """

    def parse_term() -> Message:
        tok = stream.next()
        if tok.kind == "{":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"encryption nested deeper than {MAX_NESTING} levels", tok.line, tok.column
                )
            body = parse_message_tokens(stream, resolve, depth + 1)
            stream.expect("}")
            key_tok = stream.expect("name")
            key = resolve(key_tok.text, key_tok)
            if not isinstance(key, SymKey):
                raise ParseError(
                    f"encryption key {format_message(key)!r} is not a declared symmetric key",
                    key_tok.line, key_tok.column,
                )
            return Enc(body, key)
        if tok.kind == "?":
            name_tok = stream.expect("name")
            base, copy, session = split_atom_name(name_tok.text)
            if session is not None:
                raise ParseError("variables carry no session tag", name_tok.line, name_tok.column)
            return Variable(base, copy)
        if tok.kind == "eps":
            return EMPTY
        if tok.kind == "name":
            return resolve(tok.text, tok)
        raise ParseError(f"expected a message term, found {tok.text!r}", tok.line, tok.column)

    parts = [parse_term()]
    while True:
        tok = stream.peek()
        if tok is not None and tok.kind == ".":
            stream.next()
            parts.append(parse_term())
        else:
            break
    return concat(parts)

