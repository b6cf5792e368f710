"""The bound-ordering law, for tests only."""

from __future__ import annotations

from wfcheck import Evaluation, VerificationContext, candidate_sources, lower_bound
from wfcheck.protocol import EncryptionPatternSet
from wfcheck.safefun import Variant
from wfcheck.terms import Message, Target


def bound_ordering_check(
    variant: Variant,
    target: Target,
    r_plus: Message,
    patterns: EncryptionPatternSet,
    ctx: VerificationContext,
) -> bool:
    """The upper bound dominates the lower bound on every sent message."""
    evaluation = Evaluation(variant, ctx)
    lower = lower_bound(evaluation, target, r_plus, candidate_sources(r_plus, patterns))
    upper = evaluation.level(target, r_plus)
    return ctx.lattice.leq(lower, upper)
