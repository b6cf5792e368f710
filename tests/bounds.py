"""The bound-ordering law, for tests only."""

from __future__ import annotations

from typing import Sequence

from wfcheck import Evaluation, VerificationContext, candidate_sources, lower_bound
from wfcheck.lattice import SecurityLevel
from wfcheck.protocol import GeneralizedRole
from wfcheck.safefun import Variant
from wfcheck.terms import Enc, Message, Target


def bound_ordering_check(
    variant: Variant,
    target: Target,
    r_plus: Message,
    patterns: Sequence[Enc],
    ctx: VerificationContext,
) -> bool:
    """The upper bound dominates the lower bound on every sent message."""
    evaluation = Evaluation(variant, ctx)
    lower = lower_bound(evaluation, target, r_plus, candidate_sources(r_plus, patterns))[0]
    upper = evaluation.level(target, r_plus)
    return ctx.lattice.leq(lower, upper)


def received_bound(evaluation: Evaluation, target: Target, role: GeneralizedRole) -> SecurityLevel:
    """The upper bound by the plain rule: the meet of the target's levels in
    every message the role receives before its final send, ⊤ when it has none."""
    return evaluation.ctx.lattice.meet_all(evaluation.level(target, m) for m in role.received)
