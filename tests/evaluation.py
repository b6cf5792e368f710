"""The per-target occurrence walk of the evaluation, for tests only.

This is how the analyzer evaluated a target before it kept one walk per
message: every call walks the whole message looking for that one target.
``test_properties.law_memoized_evaluation_matches_the_per_target_walk``
checks that a shared :class:`wfcheck.Evaluation` gives the same selections
and levels.
"""

from __future__ import annotations

from typing import Optional

from wfcheck import VerificationContext
from wfcheck.safefun import Selection, Variant
from wfcheck.terms import Atom, Concat, Enc, Identity, Message, SymKey, Target, atoms_of


def body_occurrences(target: Target, m: Message) -> list[tuple[Enc, ...]]:
    """Enclosing-encryption chains for each occurrence outside key positions."""
    out: list[tuple[Enc, ...]] = []

    def walk(t: Message, chain: tuple[Enc, ...]):
        if t == target:
            out.append(chain)
            return
        if isinstance(t, Concat):
            for p in t.parts:
                walk(p, chain)
        elif isinstance(t, Enc):
            walk(t.body, chain + (t,))

    walk(m, ())
    return out


def _protective_enc(
    target: Target, chain: tuple[Enc, ...], ctx: VerificationContext
) -> Optional[Enc]:
    target_level = ctx.level_of(target)
    for node in chain:
        if not isinstance(node.key, SymKey):
            continue
        if ctx.lattice.leq(target_level, ctx.level_of(ctx.reverse_key(node.key))):
            return node
    return None


def reference_select(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> Selection:
    occs = body_occurrences(target, m)
    if not occs:
        return Selection(supremum=True)
    chosen: set[Atom] = set()
    for chain in occs:
        node = _protective_enc(target, chain, ctx)
        if node is None:
            return Selection(infimum=True)
        if variant in (Variant.MAX, Variant.N):
            chosen |= {a for a in atoms_of(node.body) if isinstance(a, Identity)}
        if variant in (Variant.MAX, Variant.EK):
            chosen.add(ctx.reverse_key(node.key))
    return Selection(atoms=frozenset(chosen))
