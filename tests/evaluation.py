"""The per-target occurrence walk of the evaluation, for tests only.

This is how the analyzer evaluated a target before it kept one walk per
message: every call walks the whole message looking for that one target.
``test_properties.law_memoized_evaluation_matches_the_per_target_walk``
checks that a shared :class:`wfcheck.Evaluation` gives the same selections
and levels.

``select`` and ``protective_key`` expose the analyzer's own selection and
protective-key search on one message, so tests can inspect them directly.
"""

from __future__ import annotations

from typing import Optional

from wfcheck import AtomAbsent, VerificationContext, safefun
from wfcheck.safefun import Selection, Variant
from wfcheck.terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    SymKey,
    Target,
    atoms_of,
    format_message,
)


def select(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> Selection:
    """The analyzer's selection around ``target`` in ``m``."""
    return safefun._select(variant, target, safefun.occurrences(m).get(target, []), ctx)


def protective_key(
    target: Target, m: Message, ctx: VerificationContext
) -> tuple[tuple[Atom, Message], ...]:
    """Per protected occurrence, the external protective key and its section.

    Returns an empty tuple when every occurrence is unprotected; raises
    AtomAbsent when the target does not occur in the message at all.
    """
    occs = safefun.occurrences(m)
    if target not in occs:
        raise AtomAbsent(f"{format_message(target)} does not occur in {format_message(m)}")
    found: list[tuple[Atom, Message]] = []
    for chain in occs[target]:
        node = safefun._protective_enc(target, chain, ctx)
        if node is not None:
            found.append((node.key, node))
    return tuple(found)


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
