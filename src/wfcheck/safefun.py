"""Security-level evaluation of atoms inside messages.

The evaluation of a target (atom or variable) in a message is anchored at
its external protective key: the outermost encryption whose decryption key
is allowed to know the target. The paper defines it in two stages,
F' = psi . select: a selection gathers neighbors under that protection, and
the homomorphism psi maps the selection to a level by replacing each
identity with itself and the protective key's inverse with the set of
parties authorized to know it. ``_level`` computes that composite in one
pass, straight from the occurrence chains, without building the selection;
the two-stage definition is kept in the tests as the reference it must
agree with.

Three selection variants are provided: MAX takes every identity under the
protection plus the decryption key, EK the decryption key alone, N the
identities alone. Occurrences without any protective key evaluate to
bottom (the target is effectively exposed); a target that never occurs in
body position evaluates to top. Multiple occurrences combine by meet.

The paper evaluates a target in the message with its variables removed
(the derivative), so that nothing rests on what an unknown component might
contain. A selection holds only identities and a decryption key, never a
variable, so removing variables would change no level: ``f_prime``
evaluates the message as it is.

One walk of a message (``occurrences``) maps its leaves, in first-occurrence
order, to their occurrence chains. An :class:`Evaluation` keeps that walk
(``walk``) and the levels computed from it per distinct message; it is the
analysis's one walker of messages, so an analysis walks each one once.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .context import VerificationContext
from .lattice import BOTTOM, TOP, SecurityLevel
from .terms import Concat, Enc, Identity, Message, SymKey, Target, leaves


class Variant(Enum):
    MAX = "max"
    EK = "ek"
    N = "n"


# ---------------------------------------------------------------------------
# Occurrences, protective keys and levels

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
) -> Optional[tuple[Enc, SecurityLevel]]:
    """Outermost enclosing encryption whose reverse key may know the target,
    with the level of that reverse key."""
    target_level = ctx.level_of(target)
    for node in chain:
        if not isinstance(node.key, SymKey):
            continue
        key_level = ctx.level_of(ctx.reverse_key(node.key))
        if ctx.lattice.leq(target_level, key_level):
            return node, key_level
    return None


def _level(
    variant: Variant, target: Target, chains: list[tuple[Enc, ...]], ctx: VerificationContext
) -> SecurityLevel:
    """The paper's psi after select, over the occurrence chains of ``target``, in one pass.

    Each occurrence contributes the names of the identities in its
    protective body (not under EK) and the members of its decryption key's
    level (not under N); occurrences combine by meet, the union of names.
    """
    if not chains:
        return TOP
    names: set[str] = set()
    for chain in chains:
        protection = _protective_enc(target, chain, ctx)
        if protection is None:
            return BOTTOM
        node, key_level = protection
        if variant is not Variant.EK:
            names.update(a.name for a in leaves(node.body) if isinstance(a, Identity))
        if variant is not Variant.N:
            if key_level.is_bottom:
                return BOTTOM
            names |= key_level.authorized
    return ctx.lattice.canon(SecurityLevel(frozenset(names)))


# ---------------------------------------------------------------------------
# The evaluation function

class Evaluation:
    """``f_prime`` under one variant and context, memoized per message value.

    Each distinct message is walked once (its ``occurrences``, which
    ``walk`` returns), and the level of a target in it is computed the
    first time a caller asks for it, never for a leaf nobody asks about.
    One analysis owns one evaluation, so the memo holds only that
    analysis's messages, and the upper bounds only its receive prefixes;
    its callers share the walks and the bounds and only read them.
    """

    def __init__(self, variant: Variant, ctx: VerificationContext):
        self.variant = variant
        self.ctx = ctx
        self._memo: dict[Message, tuple[Occurrences, dict[Target, SecurityLevel]]] = {}
        self._bounds: dict[tuple[Message, ...], dict[Target, SecurityLevel]] = {(): {}}

    def _entry(self, m: Message) -> tuple[Occurrences, dict[Target, SecurityLevel]]:
        entry = self._memo.get(m)
        if entry is None:
            entry = self._memo[m] = (occurrences(m), {})
        return entry

    def walk(self, m: Message) -> Occurrences:
        """The ``occurrences`` of ``m``: its leaves in first-occurrence order."""
        return self._entry(m)[0]

    def level(self, target: Target, m: Message) -> SecurityLevel:
        occs, levels = self._entry(m)
        level = levels.get(target)
        if level is None:
            level = levels[target] = _level(self.variant, target, occs.get(target, []), self.ctx)
        return level

    def upper_bounds(self, received: tuple[Message, ...]) -> dict[Target, SecurityLevel]:
        """Per leaf at a body position of the messages ``received``, the meet of
        its levels in them; a target missing from the map is ⊤, the meet of
        none. Each prefix's map extends the previous one's with the levels of
        one message, so the prefix roles of an owner share their meets."""
        known = len(received)
        while received[:known] not in self._bounds:
            known -= 1
        bounds = self._bounds[received[:known]]
        meet = self.ctx.lattice.meet
        for end in range(known + 1, len(received) + 1):
            m, bounds = received[end - 1], dict(bounds)
            for target, chains in self.walk(m).items():
                if chains:
                    level = self.level(target, m)
                    bounds[target] = meet(bounds[target], level) if target in bounds else level
            self._bounds[received[:end]] = bounds
        return bounds


def f_prime(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> SecurityLevel:
    """Level of a target (atom or variable) in a message: psi of its selection.

    No derivation is applied first: a selection never holds a variable, so
    removing the variables of ``m`` would not change the level. An absent
    target scores top. A one-off
    :class:`Evaluation`; an analysis keeps one evaluation for all its calls.
    """
    return Evaluation(variant, ctx).level(target, m)
