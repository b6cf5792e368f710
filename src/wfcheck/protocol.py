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
verify in received messages by variables. An encrypted component whose key
the participant cannot reverse becomes a single variable; inside
decryptable components only the atoms it can recognize survive. Forwarded
opaque components reuse the variable introduced when they arrived.

One role is emitted per send of the participant (the projection prefix up
to that send), plus the full projection when it ends with a receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Optional

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


@dataclass(frozen=True)
class NarrationStep:
    index: int
    sender: str
    receiver: str
    payload: Message
    #: where the step starts in the narration text, for diagnostics only
    line: Optional[int] = field(default=None, compare=False)

    def __str__(self):
        return f"{self.index}. {self.sender} -> {self.receiver} : {format_message(self.payload)}"


@dataclass(frozen=True)
class Narration:
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


@dataclass(frozen=True)
class RoleStep:
    step_id: str
    narration_index: int
    direction: Direction
    partner: str
    payload: Message

    def describe(self, owner: str) -> str:
        if self.direction is Direction.SEND:
            return f"{self.step_id}  {owner} -> I({self.partner}) : {format_message(self.payload)}"
        return f"{self.step_id}  I({self.partner}) -> {owner} : {format_message(self.payload)}"


@dataclass(frozen=True)
class GeneralizedRole:
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


@dataclass(frozen=True)
class EncryptionPatternSet:
    """Renamed-apart encryption-rooted messages; the candidate-source universe."""

    patterns: tuple[Message, ...]

    def __post_init__(self):
        seen_vars: set = set()
        for p in self.patterns:
            if not isinstance(p, Enc):
                raise ValueError(f"pattern is not encryption-rooted: {format_message(p)}")
            mine = vars_of(p)
            if mine & seen_vars:
                raise ValueError(f"patterns share variables: {format_message(p)}")
            seen_vars |= mine

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
        _require_atomic_keys(payload, ctx, num_tok.line)
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


def _require_atomic_keys(m: Message, ctx: VerificationContext, lineno: int) -> None:
    """Only atomic symmetric keys may encrypt; anything else is rejected."""
    if isinstance(m, Concat):
        for p in m.parts:
            _require_atomic_keys(p, ctx, lineno)
    elif isinstance(m, Enc):
        if not isinstance(m.key, SymKey):
            raise ParseError(
                f"encryption key {format_message(m.key)!r} is not a declared symmetric key",
                lineno,
            )
        _require_atomic_keys(m.body, ctx, lineno)


def load_narration(path, ctx: VerificationContext) -> Narration:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_narration(fh.read(), ctx)


# ---------------------------------------------------------------------------
# Role extraction

class _VariablePool:
    def __init__(self):
        self.count = 0

    def fresh(self) -> Variable:
        if self.count < len(_VARIABLE_NAMES):
            name = _VARIABLE_NAMES[self.count]
            var = Variable(name)
        else:
            name = _VARIABLE_NAMES[self.count % len(_VARIABLE_NAMES)]
            var = Variable(name, copy=self.count // len(_VARIABLE_NAMES))
        self.count += 1
        return var


class _OwnerView:
    """Abstraction state while walking one participant's projection."""

    def __init__(self, owner: str, ctx: VerificationContext, pool: _VariablePool):
        self.owner = owner
        self.ctx = ctx
        self.pool = pool
        self.memo: dict[Message, Variable] = {}
        self.generated: set[str] = set()

    def _own_fresh(self, a: Atom) -> bool:
        return self.ctx.fresh_owner(a) == self.owner

    def _tag(self, a: Atom) -> Atom:
        return replace(a, session=SESSION_TAG)

    def _can_reverse(self, key: SymKey) -> bool:
        # possession, not mere authorization: a long-term key the owner
        # shares, or a fresh key the owner has generated in this session
        if not self.ctx.knows_key(self.owner, key):
            return False
        fresh_by = self.ctx.fresh_owner(key)
        if fresh_by is None:
            return True
        return fresh_by == self.owner and key.name in self.generated

    def abstract_receive(self, m: Message) -> Message:
        if m in self.memo:
            return self.memo[m]
        if isinstance(m, Identity):
            return m
        if isinstance(m, (Nonce, SymKey)):
            if self._own_fresh(m) and m.name in self.generated:
                return self._tag(m)
            if isinstance(m, SymKey) and self.ctx.fresh_owner(m) is None \
                    and self.ctx.knows_key(self.owner, m):
                return m
            return self.memo.setdefault(m, self.pool.fresh())
        if isinstance(m, Concat):
            return concat(self.abstract_receive(p) for p in m.parts)
        if isinstance(m, Enc):
            if isinstance(m.key, SymKey) and self._can_reverse(m.key):
                return Enc(self.abstract_receive(m.body), self._key_atom(m.key))
            return self.memo.setdefault(m, self.pool.fresh())
        raise ParseError(f"cannot abstract message component {format_message(m)!r}")

    def _key_atom(self, key: SymKey) -> SymKey:
        return self._tag(key) if self._own_fresh(key) else key

    def abstract_send(self, m: Message) -> Message:
        if m in self.memo:
            return self.memo[m]
        if isinstance(m, Identity):
            return m
        if isinstance(m, (Nonce, SymKey)):
            if self._own_fresh(m):
                self.generated.add(m.name)
                return self._tag(m)
            if isinstance(m, SymKey) and self.ctx.fresh_owner(m) is None \
                    and self.ctx.knows_key(self.owner, m):
                return m
            raise ParseError(
                f"{self.owner} sends {format_message(m)!r} without ever learning it"
            )
        if isinstance(m, Concat):
            return concat(self.abstract_send(p) for p in m.parts)
        if isinstance(m, Enc):
            key = self.abstract_send(m.key)
            if isinstance(key, Variable):
                raise ParseError(
                    f"{self.owner} cannot encrypt under a key it does not possess"
                )
            return Enc(self.abstract_send(m.body), key)
        raise ParseError(f"cannot abstract message component {format_message(m)!r}")


def extract_roles(narration: Narration, ctx: VerificationContext) -> tuple[GeneralizedRole, ...]:
    """All generalized roles, grouped by owner in order of first appearance."""
    pool = _VariablePool()
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
    roles = list(roles)
    longest: dict[str, GeneralizedRole] = {}
    order: list[str] = []
    for role in roles:
        if role.owner not in longest:
            order.append(role.owner)
            longest[role.owner] = role
        elif len(role.steps) > len(longest[role.owner].steps):
            longest[role.owner] = role
    out: list[Message] = []
    tag = 0
    for owner in order:
        for step in longest[owner].steps:
            tag += 1
            out.append(rename_apart(step.payload, tag))
    return out


def encryption_patterns(msgs: Iterable[Message]) -> EncryptionPatternSet:
    """Encryption-rooted messages, deduplicated modulo renaming."""
    kept: list[Message] = []
    seen: set[str] = set()
    for m in msgs:
        if not isinstance(m, Enc):
            continue
        key = canonical_form(m)
        if key in seen:
            continue
        seen.add(key)
        kept.append(m)
    return EncryptionPatternSet(tuple(kept))
