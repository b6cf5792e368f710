"""The bound-ordering law, for tests only."""

from __future__ import annotations

from typing import Sequence

from wfcheck import Evaluation, VerificationContext, candidate_sources, lower_bound
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
