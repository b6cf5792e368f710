"""Protocol narrations, generalized roles and the encryption pattern set.

A narration is the familiar numbered message list:

    protocol WooLamMod
    1. A -> B : A
    2. B -> A : Nb
    3. A -> B : {B.kab}kas
    ...

Role extraction projects the narration onto each participant, routes every
exchange through the intruder-controlled network, session-tags the values
the participant generates freshly, and replaces the components it cannot
verify in received messages by variables. One rule, ``_OwnerView._held``,
decides possession: the participant holds the values it generated in this
session and the long-term keys it shares. A received atom it does not hold,
or an encryption it cannot open with a held key, becomes one variable.
Forwarded opaque components reuse the variable introduced when they arrived.

One role is emitted per send of the participant (the projection prefix up
to that send), plus the full projection when it ends with a receive.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from typing import Iterable, Iterator, NamedTuple, Optional

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
    TokenStream,
    Variable,
    canonical_form,
    concat,
    format_message,
    parse_message_tokens,
    rename_apart,
    tokenize,
    vars_of,
)

SESSION_TAG = "i"

#: Variable names handed out while abstracting received components, in the
#: conventional order; later positions fall back to indexed names.
_VARIABLE_NAMES = ("X", "Y", "Z", "U", "V", "W", "P", "Q", "R", "T")


class NarrationStep(NamedTuple):
    index: int
    sender: str
    receiver: str
    payload: Message
    #: where the step starts in the narration text, for diagnostics only:
    #: steps that differ only in ``line`` are equal and hash equal
    line: Optional[int] = None

    def __eq__(self, other):
        return isinstance(other, NarrationStep) and self[:4] == other[:4]

    def __ne__(self, other):  # tuple's own != would still compare ``line``
        return not self == other

    def __hash__(self):
        return hash(self[:4])

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

    def received_before(self, position: int) -> tuple[Message, ...]:
        """Payloads received strictly before the step at ``position``."""
        return tuple(
            s.payload for s in self.steps[:position] if s.direction is Direction.RECEIVE
        )

    def describe(self) -> tuple[str, ...]:
        return tuple(s.describe(self.owner) for s in self.steps)


class EncryptionPatternSet:
    """Renamed-apart encryption-rooted messages; the candidate-source universe."""

    def __init__(self, patterns: tuple[Message, ...]):
        seen_vars: set = set()
        for p in patterns:
            if not isinstance(p, Enc):
                raise ValueError(f"pattern is not encryption-rooted: {format_message(p)}")
            mine = vars_of(p)
            if mine & seen_vars:
                raise ValueError(f"patterns share variables: {format_message(p)}")
            seen_vars |= mine
        self.patterns = patterns

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)


# ---------------------------------------------------------------------------
# Narration parsing

def parse_narration(text: str, ctx: VerificationContext) -> Narration:
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty protocol text")
    stream = TokenStream(tokens)

    head = stream.next()
    if head.kind != "name" or head.text != "protocol":
        raise ParseError("narration must start with 'protocol <name>'", head.line, head.column)
    name_tok = stream.expect("name")

    def resolve(atom_text: str, tok) -> Atom:
        try:
            return ctx.resolve_atom(atom_text)
        except UnknownAtom:
            raise UndeclaredAtom(
                f"atom {atom_text!r} is not declared in the context", tok.line, tok.column
            ) from None

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
            if not ctx.is_principal(tok.text):
                raise UndeclaredAtom(f"undeclared principal {tok.text!r}", tok.line, tok.column)
        payload = parse_message_tokens(stream, resolve)
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
    """Fresh variables in ``_VARIABLE_NAMES`` order, then their indexed copies."""
    for n in count():
        copy, i = divmod(n, len(_VARIABLE_NAMES))
        yield Variable(_VARIABLE_NAMES[i], copy or None)


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
        session-tagged copy) and a long-term key it shares (the key itself).
        """
        fresh_by = self.ctx.fresh_owner(a)
        if fresh_by is None:
            return a if isinstance(a, SymKey) and self.ctx.knows_key(self.owner, a) else None
        if fresh_by == self.owner and a.name in self.generated:
            return a._replace(session=SESSION_TAG)
        return None

    def abstract_receive(self, m: Message) -> Message:
        if m in self.memo:
            return self.memo[m]
        if isinstance(m, Identity):
            return m
        if isinstance(m, Concat):
            return concat(self.abstract_receive(p) for p in m.parts)
        if isinstance(m, (Nonce, SymKey)):
            held = self._held(m)
        elif isinstance(m, Enc):
            # possession, not mere authorization, opens an encryption
            key = self._held(m.key) if self.ctx.knows_key(self.owner, m.key) else None
            held = None if key is None else Enc(self.abstract_receive(m.body), key)
        else:
            raise ParseError(f"cannot abstract message component {format_message(m)!r}")
        return self.memo.setdefault(m, next(self.pool)) if held is None else held

    def abstract_send(self, m: Message) -> Message:
        if m in self.memo:
            return self.memo[m]
        if isinstance(m, Identity):
            return m
        if isinstance(m, Concat):
            return concat(self.abstract_send(p) for p in m.parts)
        if isinstance(m, Enc):
            key = self.abstract_send(m.key)
            if isinstance(key, Variable):
                raise ParseError(
                    f"{self.owner} cannot encrypt under a key it does not possess"
                )
            return Enc(self.abstract_send(m.body), key)
        if isinstance(m, (Nonce, SymKey)):
            if self.ctx.fresh_owner(m) == self.owner:
                self.generated.add(m.name)
            held = self._held(m)
            if held is not None:
                return held
            raise ParseError(
                f"{self.owner} sends {format_message(m)!r} without ever learning it"
            )
        raise ParseError(f"cannot abstract message component {format_message(m)!r}")


def extract_roles(narration: Narration, ctx: VerificationContext) -> tuple[GeneralizedRole, ...]:
    """All generalized roles, grouped by owner in order of first appearance."""
    pool = _variables()
    roles: list[GeneralizedRole] = []
    for owner in narration.participants():
        view = _OwnerView(owner, ctx, pool)
        steps: list[RoleStep] = []
        for nstep in narration.steps:
            if nstep.sender == owner:
                direction, partner, abstract = Direction.SEND, nstep.receiver, view.abstract_send
            elif nstep.receiver == owner:
                direction, partner, abstract = (
                    Direction.RECEIVE, nstep.sender, view.abstract_receive
                )
            else:
                continue
            try:
                payload = abstract(nstep.payload)
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


def generated_messages(roles: Iterable[GeneralizedRole]) -> list[Message]:
    """Renamed copies of every step payload, one per step of each full projection.

    Prefix roles repeat the steps of the full projection, so each owner
    contributes the payloads of its longest role only. Every payload is
    renamed apart with its own tag; duplicates survive with multiplicity.
    """
    longest: dict[str, GeneralizedRole] = {}
    for role in roles:
        kept = longest.get(role.owner)
        if kept is None or len(role.steps) > len(kept.steps):
            longest[role.owner] = role
    payloads = [step.payload for role in longest.values() for step in role.steps]
    return [rename_apart(payload, tag) for tag, payload in enumerate(payloads, start=1)]


def encryption_patterns(msgs: Iterable[Message]) -> EncryptionPatternSet:
    """Encryption-rooted messages, deduplicated modulo renaming."""
    kept: dict[str, Message] = {}
    for m in msgs:
        if isinstance(m, Enc):
            kept.setdefault(canonical_form(m), m)
    return EncryptionPatternSet(tuple(kept.values()))
