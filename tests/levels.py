"""The plain rule for a variable's declared level, as a test reference.

``wfcheck.variable_levels`` deduplicates its universe and scans
each receive shape once. The rule it must agree with has none of that:
every encryption subterm of every full-role payload, nested ones included
and each renamed apart, is unified with every encryption of a receive
that holds a sent variable, and each sent variable takes the join of the
declared levels of the nonces and keys at body positions of what it is
bound to.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from wfcheck import BOTTOM, Direction, GeneralizedRole, SecurityLevel, VerificationContext
from wfcheck.protocol import full_roles
from wfcheck.terms import Atom, Concat, Enc, Message, Variable, rename_apart, unify, vars_of


def encryptions(m: Message) -> Iterator[Enc]:
    """Every encryption subterm of ``m``, outermost first."""
    if isinstance(m, Concat):
        for p in m.parts:
            yield from encryptions(p)
    elif isinstance(m, Enc):
        yield m
        yield from encryptions(m.body)


def body_atoms(m: Message) -> Iterator[Atom]:
    """The atoms of ``m`` outside key positions."""
    if isinstance(m, Concat):
        for p in m.parts:
            yield from body_atoms(p)
    elif isinstance(m, Enc):
        yield from body_atoms(m.body)
    elif isinstance(m, Atom):
        yield m


def plain_universe(roles: Sequence[GeneralizedRole]) -> list[Enc]:
    """Every encryption of every full-role payload, each renamed apart."""
    payloads = [step.payload for role in full_roles(roles).values() for step in role.steps]
    nested = [enc for payload in payloads for enc in encryptions(payload)]
    return [rename_apart(enc, tag) for tag, enc in enumerate(nested, start=1)]


def sent_variables(roles: Sequence[GeneralizedRole]) -> set[Variable]:
    return {
        v for role in full_roles(roles).values() for step in role.steps
        if step.direction is Direction.SEND for v in vars_of(step.payload)
    }


def receive_encryptions(roles: Sequence[GeneralizedRole]) -> list[Enc]:
    """The encryptions of the full roles' receives whose body holds a sent variable."""
    sent = sent_variables(roles)
    return [
        enc
        for role in full_roles(roles).values() for step in role.steps
        if step.direction is Direction.RECEIVE
        for enc in encryptions(step.payload) if vars_of(enc.body) & sent
    ]


def most_general(p: Message, e: Message) -> list[dict]:
    """``unify``'s unifier of the two terms, if any."""
    sigma = unify(p, e)
    return [] if sigma is None else [sigma]


def plain_variable_levels(
    roles: Sequence[GeneralizedRole],
    ctx: VerificationContext,
    unifiers: Callable[[Message, Message], Iterable[dict]] = most_general,
) -> dict[Variable, SecurityLevel]:
    """Each sent variable's level by the plain rule; ``unifiers`` gives the
    unifiers of a universe term with a receive encryption."""
    sent = sent_variables(roles)
    universe = plain_universe(roles)
    levels = {v: BOTTOM for v in sent}
    for e in receive_encryptions(roles):
        for p in universe:
            for sigma in unifiers(p, e):
                for x in vars_of(e) & sent:
                    for atom in body_atoms(sigma.get(x, x)):
                        levels[x] = ctx.lattice.join(levels[x], ctx.level_of(atom))
    return levels
