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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .context import VerificationContext
from .errors import AtomAbsent
from .lattice import BOTTOM, TOP, PrincipalId, SecurityLevel
from .terms import (
    Atom,
    Concat,
    Enc,
    Identity,
    Message,
    SymKey,
    Target,
    Variable,
    atoms_of,
    erase_copies,
    format_message,
    vars_of,
)


class Variant(Enum):
    MAX = "max"
    EK = "ek"
    N = "n"


@dataclass(frozen=True)
class Selection:
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

def _body_occurrences(target: Target, m: Message) -> list[tuple[Enc, ...]]:
    """Enclosing-encryption chains for each occurrence outside key positions.

    An atom serving only as an encryption key is not exposed by the
    message, so key positions do not count as occurrences.
    """
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


def occurs_anywhere(target: Target, m: Message) -> bool:
    if isinstance(target, Variable):
        return target in vars_of(m)
    return target in atoms_of(m)


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


def protective_key(
    target: Target, m: Message, ctx: VerificationContext
) -> tuple[tuple[Atom, Message], ...]:
    """Per protected occurrence, the external protective key and its section.

    Returns an empty tuple when every occurrence is unprotected; raises
    AtomAbsent when the target does not occur in the message at all.
    """
    if not occurs_anywhere(target, m):
        raise AtomAbsent(f"{format_message(target)} does not occur in {format_message(m)}")
    found: list[tuple[Atom, Message]] = []
    for chain in _body_occurrences(target, m):
        node = _protective_enc(target, chain, ctx)
        if node is not None:
            found.append((node.key, node))
    return tuple(found)


# ---------------------------------------------------------------------------
# Selections and the homomorphism

def _identities_in(m: Message) -> frozenset[Identity]:
    return frozenset(a for a in atoms_of(m) if isinstance(a, Identity))


def select(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> Selection:
    occs = _body_occurrences(target, m)
    if not occs:
        return Selection(supremum=True)
    chosen: set[Atom] = set()
    for chain in occs:
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
    members: set[PrincipalId] = set()
    for a in selection.atoms:
        if isinstance(a, Identity):
            members.add(PrincipalId(erase_copies(a).name))
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

def f_prime(
    variant: Variant, target: Target, m: Message, ctx: VerificationContext
) -> SecurityLevel:
    """Level of a target (atom or variable) in a message: ``psi(select(...))``.

    No derivation is applied first: a selection never holds a variable, so
    removing the variables of ``m`` would not change the level. An absent
    target, and so the empty message, scores top.
    """
    return psi(select(variant, target, m, ctx), ctx)
