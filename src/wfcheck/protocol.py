"""Protocol narrations, generalized roles and the encryption pattern set.

A narration is the familiar numbered message list:

    protocol WooLamMod
    1. A -> B : A
    2. B -> A : Nb
    3. A -> B : {B.kab}kas
    ...

This module owns the narration grammar. A payload is terms joined by
``.``; a term is a declared atom or ``{payload}key``. Principal and atom
names follow the context file's rule, a letter and then letters or digits;
the protocol name may also hold ``_`` and ``^``. Any other character is an
``unexpected character`` error at its line and column.

Role extraction projects the narration onto each participant, routes every
exchange through the intruder-controlled network, session-tags the values
the participant generates freshly, and replaces the components it cannot
verify in received messages by variables. One rule, ``_OwnerView._held``,
decides possession: the participant holds the values it generated in this
session and the long-term keys whose level admits it. One recursion,
``_OwnerView.abstract``, walks sends and receives alike; its ``Enc`` branch
decides encryption rights (a send's key must be held) and decryption
rights (a receive opens only under a held key the owner may use). A send
of a nonce or key the participant does not hold is an error; a received
one, or a received encryption it cannot open, becomes one variable.
Forwarded opaque components reuse the variable introduced when they
arrived.

One role is emitted per send of the participant (the projection prefix up
to that send), plus the full projection when it ends with a receive.

The encryption patterns are the encrypted payloads of the full roles, one
per canonical form, each renamed apart with the tag of its first step.
``renamed_by_form`` builds them, and builds the level scan's nested
encryptions of the other forms, so each distinct encryption is put in
canonical form once per analysis and only the kept ones are renamed.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import count
from typing import Container, Iterable, Iterator, NamedTuple, Optional

from .context import VerificationContext
from .errors import ParseError, UndeclaredAtom, UnknownAtom
from .terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    Nonce,
    SymKey,
    Variable,
    canonical_form,
    concat,
    format_message,
    rename_apart,
)

SESSION_TAG = "i"

#: Variable names handed out while abstracting received components, in the
#: conventional order; later positions fall back to numbered names.
_VARIABLE_NAMES = ("X", "Y", "Z", "U", "V", "W", "P", "Q", "R", "T")


class NarrationStep(NamedTuple):
    index: int
    sender: str
    receiver: str
    payload: Message
    #: where the step starts in the narration text, for diagnostics
    line: Optional[int] = None

    def __str__(self):
        return f"{self.index}. {self.sender} -> {self.receiver} : {format_message(self.payload)}"


class Narration(NamedTuple):
    name: str
    steps: tuple[NarrationStep, ...]

    def participants(self) -> tuple[str, ...]:
        seen: list[str] = []
        for step in self.steps:
            for p in (step.sender, step.receiver):
                if p not in seen:
                    seen.append(p)
        return tuple(seen)


class Direction(Enum):
    SEND = "send"
    RECEIVE = "receive"


class RoleStep(NamedTuple):
    step_id: str
    narration_index: int
    direction: Direction
    partner: str
    payload: Message

    def describe(self, owner: str) -> str:
        if self.direction is Direction.SEND:
            return f"{self.step_id}  {owner} -> I({self.partner}) : {format_message(self.payload)}"
        return f"{self.step_id}  I({self.partner}) -> {owner} : {format_message(self.payload)}"


class GeneralizedRole(NamedTuple):
    """A participant's abstracted view of a protocol prefix."""

    owner: str
    index: int
    steps: tuple[RoleStep, ...]

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.index}"

    @property
    def final(self) -> RoleStep:
        return self.steps[-1]

    @property
    def received(self) -> tuple[Message, ...]:
        """Payloads received before the final step."""
        return tuple(s.payload for s in self.steps[:-1] if s.direction is Direction.RECEIVE)

    def describe(self) -> tuple[str, ...]:
        return tuple(s.describe(self.owner) for s in self.steps)


# ---------------------------------------------------------------------------
# Narration parsing

#: Deepest ``{...}key`` nesting the parser accepts. The analysis recurses
#: over terms (equality and hashing descend into nested terms), so a bound
#: keeps every accepted payload far from the interpreter's recursion limit.
MAX_NESTING = 64

# a name token may hold '_' and '^' for the protocol name; a principal or
# atom name follows the context file's rule (`_context_name`)
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<ws>[^\S\n]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<arrow>->)"
    r"|(?P<num>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_^]*)"
    r"|(?P<punct>[{}.:])"
    r"|(?P<bad>.)"
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(text):
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
    """Parse ``term ('.' term)*``, where a term is a declared atom or ``{payload}key``.

    ``depth`` counts the encryptions around the payload; one nested deeper
    than ``MAX_NESTING`` is a ``ParseError`` at its opening brace. Only a
    symmetric key may encrypt; any other key is a ``ParseError`` at the key.
    """
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


def parse_narration(text: str, ctx: VerificationContext) -> Narration:
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


def load_narration(path, ctx: VerificationContext) -> Narration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_narration(fh.read(), ctx)


# ---------------------------------------------------------------------------
# Role extraction

def _variables() -> Iterator[Variable]:
    """Fresh variables in ``_VARIABLE_NAMES`` order, then ``X1``, …, ``T1``, ``X2``, ….

    A role variable carries no rename index: that index marks the leaves
    of a renamed pattern, which must share no variable with a send.
    """
    for n in count():
        number, i = divmod(n, len(_VARIABLE_NAMES))
        yield Variable(f"{_VARIABLE_NAMES[i]}{number or ''}")


class _OwnerView:
    """Abstraction state while walking one participant's projection."""

    def __init__(self, owner: str, ctx: VerificationContext, pool: Iterator[Variable]):
        self.owner = owner
        self.ctx = ctx
        self.pool = pool
        self.memo: dict[Message, Variable] = {}
        self.generated: set[str] = set()

    def _held(self, a: Atom) -> Optional[Atom]:
        """The owner's own copy of ``a``, or None when it does not hold it.

        The owner holds a value it has generated in this session (the
        session-tagged copy) and a long-term key whose level admits it.
        """
        fresh_by = self.ctx.fresh_owner(a)
        if fresh_by is None:
            return a if isinstance(a, SymKey) and self.ctx.knows_key(self.owner, a) else None
        if fresh_by == self.owner and a.name in self.generated:
            return a._replace(session=SESSION_TAG)
        return None

    def abstract(self, m: Message, sending: bool) -> Message:
        """The owner's view of ``m``, sent when ``sending`` and received otherwise."""
        if m in self.memo:
            return self.memo[m]
        if isinstance(m, Identity):
            return m
        if isinstance(m, Concat):
            return concat(self.abstract(p, sending) for p in m.parts)
        if isinstance(m, Enc):
            if sending:
                key = self.abstract(m.key, sending)
                if isinstance(key, Variable):
                    raise ParseError(
                        f"{self.owner} cannot encrypt under a key it does not possess"
                    )
            else:
                # possession, not mere authorization, opens an encryption
                key = self._held(m.key) if self.ctx.knows_key(self.owner, m.key) else None
            held = None if key is None else Enc(self.abstract(m.body, sending), key)
        elif isinstance(m, (Nonce, SymKey)):
            if sending and self.ctx.fresh_owner(m) == self.owner:
                self.generated.add(m.name)
            held = self._held(m)
            if held is None and sending:
                raise ParseError(
                    f"{self.owner} sends {format_message(m)!r} without ever learning it"
                )
        else:
            raise ParseError(f"cannot abstract message component {format_message(m)!r}")
        return self.memo.setdefault(m, next(self.pool)) if held is None else held


def extract_roles(narration: Narration, ctx: VerificationContext) -> tuple[GeneralizedRole, ...]:
    """All generalized roles, grouped by owner in order of first appearance."""
    pool = _variables()
    roles: list[GeneralizedRole] = []
    for owner in narration.participants():
        view = _OwnerView(owner, ctx, pool)
        steps: list[RoleStep] = []
        for nstep in narration.steps:
            if nstep.sender == owner:
                direction, partner = Direction.SEND, nstep.receiver
            elif nstep.receiver == owner:
                direction, partner = Direction.RECEIVE, nstep.sender
            else:
                continue
            try:
                payload = view.abstract(nstep.payload, direction is Direction.SEND)
            except ParseError as exc:
                raise ParseError(str(exc), nstep.line) from None
            steps.append(
                RoleStep(
                    step_id=f"{SESSION_TAG}.{nstep.index}",
                    narration_index=nstep.index,
                    direction=direction,
                    partner=partner,
                    payload=payload,
                )
            )
        prefixes = [k + 1 for k, s in enumerate(steps) if s.direction is Direction.SEND]
        if steps and (not prefixes or prefixes[-1] != len(steps)):
            prefixes.append(len(steps))
        for ordinal, length in enumerate(prefixes, start=1):
            roles.append(GeneralizedRole(owner=owner, index=ordinal, steps=tuple(steps[:length])))
    return tuple(roles)


def full_roles(roles: Iterable[GeneralizedRole]) -> dict[str, GeneralizedRole]:
    """Each owner's longest role: its full projection, of which its other
    roles are prefixes. Owners keep the order of their first role."""
    longest: dict[str, GeneralizedRole] = {}
    for role in roles:
        longest[role.owner] = max(longest.get(role.owner, role), role, key=lambda r: len(r.steps))
    return longest


def renamed_by_form(
    tagged: Iterable[tuple[int, Enc]], known: Container[str] = ()
) -> dict[Enc, str]:
    """The first encryption of each canonical form not in ``known``, renamed
    apart with its tag, mapped to that form, in first-occurrence order.

    Each distinct encryption (by ``==``) is put in canonical form once, and
    only the kept ones are renamed."""
    first: dict[Enc, int] = {}
    for tag, enc in tagged:
        first.setdefault(enc, tag)
    kept: dict[str, tuple[int, Enc]] = {}
    for enc, tag in first.items():
        form = canonical_form(enc)
        if form not in known:
            kept.setdefault(form, (tag, enc))
    return {rename_apart(enc, tag): form for form, (tag, enc) in kept.items()}


def encryption_patterns(roles: Iterable[GeneralizedRole]) -> dict[Enc, str]:
    """The candidate-source universe: the encrypted payloads of the owners'
    full roles, deduplicated modulo renaming, each renamed apart with the
    tag of its first step (its position in the full roles' step listing),
    and mapped to its canonical form. Iterating gives the patterns."""
    payloads = (step.payload for role in full_roles(roles).values() for step in role.steps)
    return renamed_by_form(
        (tag, payload) for tag, payload in enumerate(payloads, start=1) if isinstance(payload, Enc)
    )
