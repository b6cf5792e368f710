"""Security-level evaluation of atoms inside messages.

The evaluation of a target (atom or variable) in a message is anchored at
its external protective key: the outermost encryption whose decryption key
is allowed to know the target. A selection gathers neighbors under that
protection; the homomorphism ``psi`` maps the selection to a level by
replacing each identity with itself and the protective key's inverse with
the set of parties authorized to know it.

Three selection variants are provided: MAX takes every identity under the
protection plus the decryption key, EK the decryption key alone, N the
identities alone. Occurrences without any protective key evaluate to
bottom (the target is effectively exposed); a target that never occurs in
body position evaluates to top. Multiple occurrences combine by meet.

The paper evaluates a target in the message with its variables removed
(the derivative), so that nothing rests on what an unknown component might
contain. A selection here holds only identities and a decryption key, never
a variable, so removing variables would change no level: ``f_prime`` is
``psi`` after ``select`` on the message as it is.

One walk of a message (``occurrences``) yields the occurrence chains of
all its leaves at once. An :class:`Evaluation` keeps that walk and the
levels computed from it per distinct message, so an analysis that asks
about many targets, sources and receives walks each message once.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from .context import VerificationContext
from .lattice import BOTTOM, TOP, SecurityLevel
from .terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    SymKey,
    Target,
    atoms_of,
    format_message,
    leaves,
)


class Variant(Enum):
    MAX = "max"
    EK = "ek"
    N = "n"


class Selection(NamedTuple):
    """Atoms selected around a target: identities and/or a decryption key.

    ``infimum`` marks an unprotected occurrence (level bottom), ``supremum``
    a target with no occurrence at all (level top).
    """

    atoms: frozenset[Atom] = frozenset()
    infimum: bool = False
    supremum: bool = False

    def __str__(self):
        if self.infimum:
            return "<infimum>"
        if self.supremum:
            return "<supremum>"
        return "{" + ", ".join(sorted(format_message(a) for a in self.atoms)) + "}"


# ---------------------------------------------------------------------------
# Occurrences and protective keys

#: Each atom and variable of a message, with the enclosing-encryption chain
#: of each of its occurrences outside key positions, left to right.
Occurrences = dict[Target, list[tuple[Enc, ...]]]


def occurrences(m: Message) -> Occurrences:
    """One walk of ``m``: every leaf with its body-occurrence chains.

    An atom serving only as an encryption key is not exposed by the
    message, so a key position adds its leaves with no chain: a target is
    in the map exactly when it occurs anywhere in ``m``.
    """
    out: Occurrences = {}

    def walk(t: Message, chain: tuple[Enc, ...]):
        if isinstance(t, Concat):
            for p in t.parts:
                walk(p, chain)
        elif isinstance(t, Enc):
            walk(t.body, chain + (t,))
            for leaf in leaves(t.key):
                out.setdefault(leaf, [])
        else:
            out.setdefault(t, []).append(chain)

    walk(m, ())
    return out


def _protective_enc(
    target: Target, chain: tuple[Enc, ...], ctx: VerificationContext
) -> Optional[Enc]:
    """Outermost enclosing encryption whose reverse key may know the target."""
    target_level = ctx.level_of(target)
    for node in chain:
        if not isinstance(node.key, SymKey):
            continue
        key_level = ctx.level_of(ctx.reverse_key(node.key))
        if ctx.lattice.leq(target_level, key_level):
            return node
    return None


# ---------------------------------------------------------------------------
# Selections and the homomorphism

def _identities_in(m: Message) -> frozenset[Identity]:
    return frozenset(a for a in atoms_of(m) if isinstance(a, Identity))


def _select(
    variant: Variant, target: Target, chains: list[tuple[Enc, ...]], ctx: VerificationContext
) -> Selection:
    if not chains:
        return Selection(supremum=True)
    chosen: set[Atom] = set()
    for chain in chains:
        node = _protective_enc(target, chain, ctx)
        if node is None:
            return Selection(infimum=True)
        if variant in (Variant.MAX, Variant.N):
            chosen |= _identities_in(node.body)
        if variant in (Variant.MAX, Variant.EK):
            chosen.add(ctx.reverse_key(node.key))
    return Selection(atoms=frozenset(chosen))


def psi(selection: Selection, ctx: VerificationContext) -> SecurityLevel:
    """Map a selection to a level: identities stand for themselves, a
    selected decryption key for the parties authorized to know it."""
    if selection.supremum:
        return TOP
    if selection.infimum:
        return BOTTOM
    members: set[str] = set()
    for a in selection.atoms:
        if isinstance(a, Identity):
            members.add(a.name)
        elif isinstance(a, SymKey):
            level = ctx.lattice.canon(ctx.level_of(a))
            if level.is_bottom:
                return BOTTOM
            members |= set(level.authorized)
        else:
            raise TypeError(f"selection may not contain {format_message(a)}")
    return ctx.lattice.canon(SecurityLevel(frozenset(members)))


# ---------------------------------------------------------------------------
# The evaluation function

class Evaluation:
    """``f_prime`` under one variant and context, memoized per message value.

    Each distinct message is walked once (its ``occurrences``), and the
    level of a target in it is computed the first time a caller asks for
    it, never for a leaf nobody asks about. One analysis owns one
    evaluation, so the memo holds only that analysis's messages.
    """

    def __init__(self, variant: Variant, ctx: VerificationContext):
        self.variant = variant
        self.ctx = ctx
        self._memo: dict[Message, tuple[Occurrences, dict[Target, SecurityLevel]]] = {}

    def _entry(self, m: Message) -> tuple[Occurrences, dict[Target, SecurityLevel]]:
        entry = self._memo.get(m)
        if entry is None:
            entry = self._memo[m] = (occurrences(m), {})
        return entry

    def occurs(self, target: Target, m: Message) -> bool:
        """Whether the target occurs anywhere in ``m``, key positions included."""
        return target in self._entry(m)[0]

    def level(self, target: Target, m: Message) -> SecurityLevel:
        occs, levels = self._entry(m)
        level = levels.get(target)
        if level is None:
            selection = _select(self.variant, target, occs.get(target, []), self.ctx)
            level = levels[target] = psi(selection, self.ctx)
        return level


def f_prime(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> SecurityLevel:
    """Level of a target (atom or variable) in a message: ``psi(select(...))``.

    No derivation is applied first: a selection never holds a variable, so
    removing the variables of ``m`` would not change the level. An absent
    target, and so the empty message, scores top. A one-off
    :class:`Evaluation`; an analysis keeps one evaluation for all its calls.
    """
    return Evaluation(variant, ctx).level(target, m)
