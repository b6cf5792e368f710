"""Bound computations and the secrecy / authentication decisions.

For every send step the analyzer compares two statically computable
levels. The upper bound is the derivative evaluation of the target over
the messages received earlier in the role. The lower bound scans every
encryption pattern the protocol can generate, keeps the ones unifiable
with the sent message, instantiates each with its most general unifier and
takes the meet of the derivative evaluations: this is where an identity
smuggled in through a variable would surface. A unifier that binds no
variable and no parameter of the sent message instantiates the pattern to
the sent message itself, so that source's instance is the send, and every
such source shares the send's evaluation.

A protocol is accepted for secrecy when, for every target of every send,
the lower bound dominates the meet of the declared level with the upper
bound on the receives. Failing the comparison yields *no decision*: the
criterion is sufficient, not necessary.

Authentication additionally requires the claimant's identity to be present
in the derivative evaluation of the challenge within the verifier's
received message, strictly above the public level.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .context import AuthChallenge, VerificationContext
from .errors import AtomAbsent, ChallengeAtomAbsent, ChallengeNotReceived, NoSource
from .lattice import SecurityLevel
from .protocol import (
    Direction,
    GeneralizedRole,
    Narration,
    encryption_patterns,
    extract_roles,
    full_roles,
    generated_messages,
)
from .safefun import Evaluation, Variant, f_prime
from .terms import (
    Enc,
    Message,
    Substitution,
    Target,
    Variable,
    apply,
    format_message,
    format_substitution,
    leaves,
    ordered_atoms,
    ordered_vars,
    unify,
)


class CandidateSource(NamedTuple):
    """A generated pattern unifiable with a sent message, with its unifier.

    ``instance`` is the pattern under the unifier. When the unifier binds
    no leaf of the sent message, that is the sent message itself (the very
    object), since a unifier maps the pattern and the message to one term.
    ``description`` is the line a report lists for the source: the printed
    pattern and its unifier. ``candidate_sources`` computes it when it
    builds the source: every encrypted send has its key as an atom target,
    which every source carries, so every description is read.
    """

    pattern: Message
    mgu: Substitution
    instance: Message
    description: str


class StepCheck(NamedTuple):
    """One bound comparison for one target of one send step."""

    role: str
    step: str
    target: str
    target_is_variable: bool
    received_bound: SecurityLevel
    declared: SecurityLevel
    lower_bound: SecurityLevel
    sources: tuple[str, ...]
    from_patterns: bool
    passed: bool


class AuthCheck(NamedTuple):
    verifier: str
    claimant: str
    challenge: str
    step: int
    message: str
    level: SecurityLevel

    _derived = ("claimant_present", "above_bottom", "passed")  # JSON writes them after the fields

    @property
    def claimant_present(self) -> bool:
        return self.claimant in self.level

    @property
    def above_bottom(self) -> bool:
        return not self.level.is_bottom

    @property
    def passed(self) -> bool:
        return self.claimant_present and self.above_bottom


def candidate_sources(r_plus: Message, patterns: Sequence[Enc]) -> list[CandidateSource]:
    """Patterns unifiable with the sent message, in declaration order."""
    send_leaves = frozenset(leaves(r_plus))
    out: list[CandidateSource] = []
    for pattern in patterns:
        sigma = unify(pattern, r_plus)
        if sigma is None:
            continue
        instance = r_plus if send_leaves.isdisjoint(sigma) else apply(sigma, pattern)
        description = f"{format_message(pattern)} via {format_substitution(sigma)}"
        out.append(CandidateSource(pattern, sigma, instance, description))
    return out


def sources_for_target(
    target: Target, sources: Sequence[CandidateSource]
) -> list[tuple[CandidateSource, Message]]:
    """The sources that carry the target, each with the term standing for it.

    A unifier that pins a variable target to a concrete term does not carry
    it as an unknown, so that source is dropped; one renaming it to another
    variable carries it as that variable.
    """
    if not isinstance(target, Variable):
        return [(source, target) for source in sources]
    pairs = ((source, source.mgu.get(target, target)) for source in sources)
    return [(source, stand_in) for source, stand_in in pairs if isinstance(stand_in, Variable)]


def lower_bound(
    evaluation: Evaluation,
    target: Target,
    r_plus: Message,
    sources: Sequence[CandidateSource],
) -> tuple[SecurityLevel, list[tuple[CandidateSource, Message]]]:
    """Meet of the derivative evaluations over the sources carrying the target,
    with those sources, each paired with the term standing for the target.

    ``sources`` are the candidate sources of ``r_plus``. Unencrypted sends
    have none; the target is evaluated on the sent message directly.
    """
    if not evaluation.occurs(target, r_plus):
        raise AtomAbsent(
            f"{format_message(target)} does not occur in {format_message(r_plus)}"
        )
    if not isinstance(r_plus, Enc):
        return evaluation.level(target, r_plus), []
    if not sources:
        raise NoSource(
            f"encrypted send {format_message(r_plus)} unifies with no generated pattern"
        )
    carriers = sources_for_target(target, sources)
    # most sources share the send as their instance: each distinct pair is
    # evaluated once, and the meet is idempotent
    evaluated = dict.fromkeys((stand_in, source.instance) for source, stand_in in carriers)
    level = evaluation.ctx.lattice.meet_all(evaluation.level(*pair) for pair in evaluated)
    return level, carriers


def check_step(
    role: GeneralizedRole, evaluation: Evaluation, patterns: Sequence[Enc]
) -> list[StepCheck]:
    """Bound comparisons for every atom and every variable of the role's final send."""
    step = role.final
    if step.direction is not Direction.SEND:
        raise ValueError(f"step {step.step_id} of {role.label} is not a send")
    ctx = evaluation.ctx
    received = role.received
    r_plus = step.payload
    sources = candidate_sources(r_plus, patterns) if isinstance(r_plus, Enc) else []
    checks: list[StepCheck] = []
    targets: list[Target] = list(ordered_atoms(r_plus)) + list(ordered_vars(r_plus))
    for target in targets:
        received_bound = ctx.lattice.meet_all(evaluation.level(target, m) for m in received)
        declared = ctx.level_of(target)
        lower, carriers = lower_bound(evaluation, target, r_plus, sources)
        required = ctx.lattice.meet(declared, received_bound)
        checks.append(
            StepCheck(
                role=role.label,
                step=step.step_id,
                target=format_message(target),
                target_is_variable=isinstance(target, Variable),
                received_bound=received_bound,
                declared=declared,
                lower_bound=lower,
                sources=tuple(source.description for source, _ in carriers),
                from_patterns=isinstance(r_plus, Enc),
                passed=ctx.lattice.leq(required, lower),
            )
        )
    return checks


def check_secrecy(
    roles: Sequence[GeneralizedRole],
    patterns: Sequence[Enc],
    ctx: VerificationContext,
    variant: Variant,
) -> list[StepCheck]:
    """The bound comparisons of every send step; secrecy holds when all of them pass.

    Each send is checked once, as the final step of its prefix role, with
    the receives accumulated before it. One evaluation serves every check,
    so a payload that several prefix roles receive is evaluated once.
    """
    evaluation = Evaluation(variant, ctx)
    checks: list[StepCheck] = []
    for role in roles:
        if role.steps and role.final.direction is Direction.SEND:
            checks.extend(check_step(role, evaluation, patterns))
    return checks


def challenge_check(
    roles: Sequence[GeneralizedRole],
    ctx: VerificationContext,
    variant: Variant,
    challenge: AuthChallenge,
) -> AuthCheck:
    """The witness clause: the claimant must appear in the challenge's level."""
    full = full_roles(roles).get(challenge.verifier)
    if full is None:
        raise ChallengeNotReceived(
            f"verifier {challenge.verifier} plays no role in the protocol"
        )
    step = next(
        (s for s in full.steps if s.narration_index == challenge.step), None
    )
    if step is None or step.direction is not Direction.RECEIVE:
        raise ChallengeNotReceived(
            f"step {challenge.step} is not a receive of verifier {challenge.verifier}"
        )
    target = next(
        (a for a in ordered_atoms(step.payload) if a.name == challenge.challenge),
        None,
    )
    if target is None:
        raise ChallengeAtomAbsent(
            f"challenge atom {challenge.challenge!r} does not occur in "
            f"{format_message(step.payload)}"
        )
    return AuthCheck(
        verifier=challenge.verifier,
        claimant=challenge.claimant,
        challenge=format_message(target),
        step=challenge.step,
        message=format_message(step.payload),
        level=f_prime(variant, target, step.payload, ctx),
    )


def analyze_narration(narration: Narration, ctx: VerificationContext):
    """Convenience: the roles and the pattern set of a parsed narration."""
    roles = extract_roles(narration, ctx)
    patterns = encryption_patterns(generated_messages(roles))
    return roles, patterns
