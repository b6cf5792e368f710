"""Message helpers that only tests use: reading printed terms back, erasing
rename indices or session tags to compare terms by their source shape, a
message's atoms, a send's targets in report order, the renamed listing of
every payload that the encryption patterns must equal after deduplication,
the rule that a rename index marks a renamed pattern leaf and nothing
else, and the ``map_leaves`` definitions of ``canonical_form`` and
``rename_apart`` that the package's one-walk versions must equal."""

from __future__ import annotations

import re
from typing import Callable, Iterable, Optional, Sequence

from wfcheck import Direction, GeneralizedRole, ParseError
from wfcheck.protocol import full_roles
from wfcheck.terms import (
    Atom,
    Enc,
    Message,
    Nonce,
    SymKey,
    Variable,
    canonical_form,
    format_message,
    leaves,
    map_leaves,
    rename_apart,
    vars_of,
)

from derivation import EMPTY, concat


def _erase_copy(t: Message) -> Message:
    return t._replace(copy=None) if t.copy is not None else t


def reference_rename_apart(m: Message, tag: int) -> Message:
    """``rename_apart`` as a leaf map: every leaf gets the rename index ``tag``."""
    return map_leaves(m, lambda t: t._replace(copy=tag))


def reference_canonical_form(m: Message) -> str:
    """``canonical_form`` as the print of a renamed copy: rename indices
    erased, variables renamed ``?V_<n>`` by first occurrence."""
    mapping: dict[Variable, Variable] = {}

    def canonical_leaf(t: Message) -> Message:
        if not isinstance(t, Variable):
            return _erase_copy(t)
        if t not in mapping:
            mapping[t] = Variable("V", len(mapping))
        return mapping[t]

    return format_message(map_leaves(m, canonical_leaf))


def erase_copies(m: Message) -> Message:
    """Drop every rename index, recovering the source shape of a pattern."""
    return map_leaves(m, _erase_copy)


def atoms_of(m: Message) -> frozenset[Atom]:
    """All atoms occurring anywhere in ``m``, including key positions."""
    return frozenset([t for t in leaves(m) if isinstance(t, Atom)])


def ordered_atoms(m: Message) -> tuple[Atom, ...]:
    """Atoms in first-occurrence order, the order of a send's atom targets."""
    return tuple(dict.fromkeys([t for t in leaves(m) if isinstance(t, Atom)]))


def ordered_vars(m: Message) -> tuple[Variable, ...]:
    """Variables in first-occurrence order, after the atoms among the targets."""
    return tuple(dict.fromkeys([t for t in leaves(m) if isinstance(t, Variable)]))


def generated_messages(roles: Iterable[GeneralizedRole]) -> list[Message]:
    """Renamed copies of every step payload, one per step of each owner's
    full role; each payload is renamed apart with its own tag, and
    duplicates survive with multiplicity."""
    payloads = [step.payload for role in full_roles(roles).values() for step in role.steps]
    return [rename_apart(payload, tag) for tag, payload in enumerate(payloads, start=1)]


def reference_patterns(msgs: Iterable[Message]) -> tuple[Enc, ...]:
    """The encryption-rooted messages, the first of each ``canonical_form``:
    what ``encryption_patterns`` gives, iterated, for ``generated_messages``."""
    kept: dict[str, Enc] = {}
    for m in msgs:
        if isinstance(m, Enc):
            kept.setdefault(canonical_form(m), m)
    return tuple(kept.values())


def _strip_session(t: Message) -> Message:
    if isinstance(t, (Nonce, SymKey)) and t.session is not None:
        return t._replace(session=None)
    return t


def strip_sessions(m: Message) -> Message:
    """Drop session tags (used to compare role payloads against narrations)."""
    return map_leaves(m, _strip_session)


#: A printed leaf (``?`` for a variable, then ``name_copy^session``) or one
#: other character, after any whitespace.
_PRINTED_TOKEN = re.compile(r"\s*(\??[A-Za-z][A-Za-z0-9]*(?:_[0-9]+)?(?:\^[A-Za-z0-9]+)?|\S)")
_LEAF = re.compile(r"\??[A-Za-z]").match


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


def parse_message(text: str, resolve: Callable[[str], Atom]) -> Message:
    """Read back what ``format_message`` prints; ``resolve`` maps a base name to its atom."""
    tokens = _PRINTED_TOKEN.findall(text)[::-1]

    def pop() -> str:
        if not tokens:
            raise ParseError(f"unexpected end of {text!r}")
        return tokens.pop()

    def leaf(tok: str) -> Message:
        if not _LEAF(tok):
            raise ParseError(f"expected a name, found {tok!r} in {text!r}")
        base, copy, session = split_atom_name(tok.lstrip("?"))
        if tok.startswith("?"):
            if session is not None:
                raise ParseError(f"variables carry no session tag: {tok!r}")
            return Variable(base, copy)
        atom = resolve(base)
        if session is not None:
            atom = atom._replace(session=session)
        return atom if copy is None else atom._replace(copy=copy)

    def term() -> Message:
        tok = pop()
        if tok == "{":
            body = message()
            if pop() != "}":
                raise ParseError(f"unclosed encryption in {text!r}")
            return Enc(body, leaf(pop()))
        return EMPTY if tok == "ε" else leaf(tok)

    def message() -> Message:
        parts = [term()]
        while tokens[-1:] == ["."]:
            tokens.pop()
            parts.append(term())
        return concat(parts)

    msg = message()
    if tokens:
        raise ParseError(f"trailing input {tokens[-1]!r}")
    return msg


def assert_only_pattern_leaves_are_renamed(
    roles: Sequence[GeneralizedRole], patterns: Sequence[Message]
) -> None:
    """No role payload leaf has a rename index and every pattern leaf has one,
    so no pattern shares a variable with a send it is unified against."""
    def copies(m: Message) -> list:
        return [t.copy for t in leaves(m) if isinstance(t, (Atom, Variable))]

    steps = [step for role in roles for step in role.steps]
    for step in steps:
        assert all(c is None for c in copies(step.payload)), step
    for p in patterns:
        assert all(c is not None for c in copies(p)), p
    sent = {v for s in steps if s.direction is Direction.SEND for v in vars_of(s.payload)}
    assert all(sent.isdisjoint(vars_of(p)) for p in patterns)
