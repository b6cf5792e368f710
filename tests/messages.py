"""Message helpers that only tests use: standalone parsing, erasing rename
indices or session tags to compare terms by their source shape, and the
rule that a rename index marks a renamed pattern leaf and nothing else."""

from __future__ import annotations

from typing import Sequence

from wfcheck import Direction, GeneralizedRole, ParseError
from wfcheck.terms import (
    Atom,
    AtomResolver,
    Message,
    Nonce,
    SymKey,
    TokenStream,
    Variable,
    _erase_copy,
    leaves,
    map_leaves,
    parse_message_tokens,
    tokenize,
    vars_of,
)


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


def parse_message(text: str, resolve: AtomResolver) -> Message:
    """Parse a standalone message; ``resolve`` maps identifier text to atoms."""
    stream = TokenStream(tokenize(text))
    msg = parse_message_tokens(stream, resolve)
    trailing = stream.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.line, trailing.column)
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
