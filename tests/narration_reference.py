"""The narration parser over a token stream, for tests only.

This is the analyzer's former ``parse_narration``: ``tokenize`` scans the
whole text once into positioned ``Token`` records, and a ``TokenStream``
hands them to a recursive-descent parser one ``peek``/``next``/``expect``
call at a time. The package's ``parse_narration`` reads each line's words
with one ``findall``, parses them by index, and places a diagnostic with
the same word pattern, rescanning only the line at fault. The two share
only the token kinds (``_KINDS``);
``test_protocol.test_parser_agrees_with_the_reference`` checks that both
give an equal narration, or the same error at the same line and column.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from wfcheck.context import VerificationContext
from wfcheck.errors import ParseError, UndeclaredAtom, UnknownAtom
from wfcheck.protocol import _KINDS, MAX_NESTING, Narration, NarrationStep
from wfcheck.terms import Atom, Enc, Message, SymKey, concat, format_message

_TOKEN_RE = "|".join(
    [r"(?P<newline>\n)", r"(?P<ws>[^\S\n]+)", r"(?P<comment>#[^\n]*)"]
    + [f"(?P<{kind}>{alt})" for kind, alt in _KINDS.items()] + ["(?P<bad>.)"]
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """The tokens of a narration with their positions."""
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in re.finditer(_TOKEN_RE, text):
        kind, chunk = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {chunk!r}", line, column)
        elif kind not in ("ws", "comment"):
            tokens.append(Token(chunk if kind == "punct" else kind, chunk, line, column))
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


def _context_name(tok: Token) -> str:
    """A principal or atom name; only the protocol name may hold ``_`` or ``^``."""
    for offset, char in enumerate(tok.text):
        if char in "_^":
            raise ParseError(f"unexpected character {char!r}", tok.line, tok.column + offset)
    return tok.text


def _declared(tok: Token, ctx: VerificationContext) -> Atom:
    try:
        return ctx.resolve_atom(_context_name(tok))
    except UnknownAtom:
        raise UndeclaredAtom(
            f"atom {tok.text!r} is not declared in the context", tok.line, tok.column
        ) from None


def _payload(stream: TokenStream, ctx: VerificationContext, depth: int = 0) -> Message:
    """Parse ``term ('.' term)*``, where a term is a declared atom or ``{payload}key``."""
    parts: list[Message] = []
    while True:
        tok = stream.next()
        if tok.kind == "{":
            if depth == MAX_NESTING:
                raise ParseError(
                    f"encryption nested deeper than {MAX_NESTING} levels", tok.line, tok.column
                )
            body = _payload(stream, ctx, depth + 1)
            stream.expect("}")
            key_tok = stream.expect("name")
            key = _declared(key_tok, ctx)
            if not isinstance(key, SymKey):
                raise ParseError(
                    f"encryption key {format_message(key)!r} is not a declared symmetric key",
                    key_tok.line, key_tok.column,
                )
            parts.append(Enc(body, key))
        elif tok.kind == "name":
            parts.append(_declared(tok, ctx))
        else:
            raise ParseError(f"expected a message term, found {tok.text!r}", tok.line, tok.column)
        tok = stream.peek()
        if tok is None or tok.kind != ".":
            return concat(parts)
        stream.next()


def reference_parse_narration(text: str, ctx: VerificationContext) -> Narration:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty protocol text")
    stream = TokenStream(tokens)

    head = stream.next()
    if head.kind != "name" or head.text != "protocol":
        raise ParseError("narration must start with 'protocol <name>'", head.line, head.column)
    name_tok = stream.expect("name")

    steps: list[NarrationStep] = []
    while stream.peek() is not None:
        num_tok = stream.expect("num")
        index = int(num_tok.text)
        if index != len(steps) + 1:
            raise ParseError(
                f"step numbers must be consecutive from 1; found {index}",
                num_tok.line, num_tok.column,
            )
        stream.expect(".")
        sender_tok = stream.expect("name")
        stream.expect("arrow")
        receiver_tok = stream.expect("name")
        stream.expect(":")
        for tok in (sender_tok, receiver_tok):
            if _context_name(tok) not in ctx.principals:
                raise UndeclaredAtom(f"undeclared principal {tok.text!r}", tok.line, tok.column)
        payload = _payload(stream, ctx)
        steps.append(
            NarrationStep(
                index=index,
                sender=sender_tok.text,
                receiver=receiver_tok.text,
                payload=payload,
                line=num_tok.line,
            )
        )

    return Narration(name=name_tok.text, steps=tuple(steps))
