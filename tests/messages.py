"""Message helpers that only tests use: standalone parsing, and erasing
rename indices or session tags to compare terms by their source shape."""

from __future__ import annotations

from wfcheck import ParseError
from wfcheck.terms import (
    AtomResolver,
    Message,
    Nonce,
    SymKey,
    TokenStream,
    _erase_copy,
    map_leaves,
    parse_message_tokens,
    tokenize,
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
