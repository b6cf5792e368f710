"""The bound-ordering law, for tests only."""

from __future__ import annotations

from wfcheck import VerificationContext, candidate_sources, f_prime, lower_bound
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
    lower = lower_bound(variant, target, r_plus, candidate_sources(r_plus, patterns), ctx)
    upper = f_prime(variant, target, r_plus, ctx)
    return ctx.lattice.leq(lower, upper)
