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

``parse_narration`` reads each line, up to its ``#`` comment, with one
``findall`` into a flat list of words, the token texts, and parses that
list by index, keeping only each word's line. The same word pattern places
every diagnostic. An unexpected character is the first character of its
line that no word takes and that is not whitespace; an error at a word is
at the start of that word's match on its line.

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
encryptions of the other forms, so each distinct encryption is printed in
canonical form once per analysis, with no term built, and only the kept
ones are renamed.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import count
from typing import Container, Iterable, Iterator, NamedTuple, Optional

from .context import MAX_STEP_DIGITS, VerificationContext
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

# The token alternatives, by kind. A name may hold '_' and '^' for the protocol
# name; a principal or atom name follows the context file's rule and holds neither.
_KINDS = {"arrow": "->", "num": r"\d+", "name": "[A-Za-z][A-Za-z0-9_^]*", "punct": "[{}.:]"}
#: The one word pattern: it reads each line's words and places every diagnostic.
_WORD = re.compile("|".join(_KINDS.values()))


def _stray(line: str) -> int:
    """The index of the first character of ``line`` that no word takes and
    that is not whitespace."""
    gaps = _WORD.sub(lambda word: " " * len(word.group()), line)
    return len(gaps) - len(gaps.lstrip())


def parse_narration(text: str, ctx: VerificationContext) -> Narration:
    """The narration in ``text``, read as a flat list of words with each word's
    line beside it. A word's kind is its first character's: a letter starts
    a name, a digit a number; ``->`` and punctuation are themselves. A payload
    is read by one loop over a stack of its open encryptions, and no helper
    calls itself, so a parse leaves no reference cycle behind."""
    words: list[str] = []
    lines: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.split("#", 1)[0]
        found = _WORD.findall(line)
        # a character no word takes is the part of the line its words miss
        if len("".join(found)) != len("".join(line.split())):
            column = _stray(line)
            raise ParseError(f"unexpected character {line[column]!r}", lineno, column + 1)
        words += found
        lines += [lineno] * len(found)
    if not words:
        raise ParseError("empty protocol text")
    end = len(words)
    words.append("")  # past the last word: of no kind

    def error(i: int, message: str, cls: type = ParseError, offset: int = 0) -> ParseError:
        if i == end:
            return ParseError("unexpected end of input", lines[-1])
        lineno = lines[i]
        line = text.split("\n")[lineno - 1].split("#", 1)[0]
        # a line's words are consecutive, so word i is the n-th match on its line
        word = list(_WORD.finditer(line))[i - lines.index(lineno)]
        return cls(message, lineno, word.start() + 1 + offset)

    def expect(i: int, kind: str) -> str:
        """Word ``i``, which must be of ``kind``."""
        word = words[i]
        if word[:1].isalpha() if kind == "name" else word == ("->" if kind == "arrow" else kind):
            return word
        raise error(i, f"expected {kind!r}, found {word!r}")

    def name(i: int) -> str:
        """Name ``i``; only the protocol name may hold ``_`` or ``^``."""
        word = words[i]
        if not word.isalnum():
            offset = min(j for j, char in enumerate(word) if char in "_^")
            raise error(i, f"unexpected character {word[offset]!r}", offset=offset)
        return word

    def atom(i: int) -> Atom:
        try:
            return ctx.resolve_atom(name(i))
        except UnknownAtom:
            message = f"atom {words[i]!r} is not declared in the context"
            raise error(i, message, UndeclaredAtom) from None

    def payload(i: int) -> tuple[Message, int]:
        """``term ('.' term)*`` from word ``i``, where a term is a declared atom or
        ``{payload}key``, and the index after it. An encryption nested deeper than
        ``MAX_NESTING`` is an error at its opening brace, and one under any key
        but a symmetric key an error at the key. ``outer`` holds the parts read
        so far of each enclosing payload, so its length is the nesting depth."""
        outer: list[list[Message]] = []
        parts: list[Message] = []
        while True:
            word = words[i]
            if word == "{":
                if len(outer) == MAX_NESTING:
                    raise error(i, f"encryption nested deeper than {MAX_NESTING} levels")
                outer.append(parts)
                parts, i = [], i + 1
                continue
            if not word[:1].isalpha():
                raise error(i, f"expected a message term, found {word!r}")
            parts.append(atom(i))
            i += 1
            while words[i] != ".":  # a part is an atom or an encryption: nothing to flatten
                body = parts[0] if len(parts) == 1 else Concat(tuple(parts))
                if not outer:
                    return body, i
                expect(i, "}")
                expect(i + 1, "name")
                key = atom(i + 1)
                if not isinstance(key, SymKey):
                    raise error(i + 1, f"encryption key {format_message(key)!r}"
                                " is not a declared symmetric key")
                parts = outer.pop()
                parts.append(Enc(body, key))
                i += 2
            i += 1

    if words[0] != "protocol":
        raise error(0, "narration must start with 'protocol <name>'")
    protocol = expect(1, "name")
    steps: list[NarrationStep] = []
    i = 2
    while i < end:
        number = words[i]
        if not number.isdecimal():
            raise error(i, f"expected 'num', found {number!r}")
        if len(number) > MAX_STEP_DIGITS:
            raise error(i, f"step number has more than {MAX_STEP_DIGITS} digits")
        index = int(number)
        if index != len(steps) + 1:
            raise error(i, f"step numbers must be consecutive from 1; found {index}")
        expect(i + 1, ".")
        sender = expect(i + 2, "name")
        expect(i + 3, "arrow")
        receiver = expect(i + 4, "name")
        expect(i + 5, ":")
        for j in (i + 2, i + 4):
            if name(j) not in ctx.principals:
                raise error(j, f"undeclared principal {words[j]!r}", UndeclaredAtom)
        message, after = payload(i + 6)
        steps.append(NarrationStep(index, sender, receiver, message, lines[i]))
        i = after
    return Narration(protocol, tuple(steps))


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
