"""The paper's two-stage evaluation F' = psi . select, for tests only.

``select`` walks the whole message for one target and gathers the atoms
around each occurrence's protective encryption into a :class:`Selection`;
``psi`` maps a selection to a level. The analyzer computes the composite in
one pass per message, without a selection:
``test_properties.law_memoized_evaluation_matches_the_per_target_walk``
checks that a shared :class:`wfcheck.Evaluation` gives ``psi(select(...))``.

``protective_key`` exposes the analyzer's own protective-key search on one
message, so tests can inspect it directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from wfcheck import BOTTOM, TOP, AtomAbsent, SecurityLevel, VerificationContext, safefun
from wfcheck.safefun import Variant
from wfcheck.terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    SymKey,
    Target,
    format_message,
)

from messages import atoms_of


class Selection(NamedTuple):
    """Atoms selected around a target: identities and/or a decryption key.

    ``infimum`` marks an unprotected occurrence (level bottom), ``supremum``
    a target with no occurrence at all (level top).
    """

    atoms: frozenset[Atom] = frozenset()
    infimum: bool = False
    supremum: bool = False


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
        protection = safefun._protective_enc(target, chain, ctx)
        if protection is not None:
            node, _ = protection
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


def select(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> Selection:
    """The selection around ``target`` in ``m``, one walk per target."""
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
            level = ctx.level_of(a)
            if level.is_bottom:
                return BOTTOM
            members |= set(level.authorized)
        else:
            raise TypeError(f"selection may not contain {format_message(a)}")
    return ctx.lattice.canon(SecurityLevel(frozenset(members)))
