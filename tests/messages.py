"""Message helpers that only tests use: reading printed terms back, erasing
rename indices or session tags to compare terms by their source shape, and
the rule that a rename index marks a renamed pattern leaf and nothing else."""

from __future__ import annotations

import re
from typing import Callable, Optional, Sequence

from wfcheck import Direction, GeneralizedRole, ParseError
from wfcheck.terms import (
    Atom,
    Enc,
    Message,
    Nonce,
    SymKey,
    Variable,
    _erase_copy,
    leaves,
    map_leaves,
    vars_of,
)

from derivation import EMPTY, concat


def erase_copies(m: Message) -> Message:
    """Drop every rename index, recovering the source shape of a pattern."""
    return map_leaves(m, _erase_copy)


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
