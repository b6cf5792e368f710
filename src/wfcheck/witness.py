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

A sent variable's declared level is the join of the secrets that the
encryptions it arrived in can put in its place (``variable_levels``). Its
universe is the patterns, extended by the nested encryptions of the forms
no pattern has, so the analysis builds each encryption once. One scan
serves sends and receives: a term's shape, its leaves renamed by first
occurrence, is unified with each universe term once per analysis, and each
term maps the summary back to its own leaves and subterms.

A protocol is accepted for secrecy when, for every target of every send,
the lower bound dominates the meet of the declared level with the upper
bound on the receives. Failing the comparison yields *no decision*: the
criterion is sufficient, not necessary.

Authentication additionally requires the claimant's identity to be present
in the derivative evaluation of the challenge within the verifier's
received message, strictly above the public level.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Optional, Sequence

from .context import AuthChallenge, VerificationContext
from .errors import AtomAbsent, ChallengeAtomAbsent, ChallengeNotReceived, NoSource
from .lattice import BOTTOM, SecurityLevel
from .protocol import (
    Direction,
    GeneralizedRole,
    Narration,
    encryption_patterns,
    extract_roles,
    full_roles,
    renamed_by_form,
)
from .safefun import Evaluation, Variant, f_prime
from .terms import (
    Atom,
    Concat,
    Enc,
    Message,
    Substitution,
    Target,
    Variable,
    apply,
    format_message,
    format_substitution,
    leaves,
    map_leaves,
    unify,
)


class CandidateSource(NamedTuple):
    """A generated pattern unifiable with a sent message, with its unifier.

    ``mgu`` is the unifier with the sent message, mapped back from the
    unifier with its shape. ``instance`` is the pattern under the unifier.
    When the unifier binds no leaf of the sent message, that is the sent
    message itself (the very object), since a unifier maps the pattern and
    the message to one term. ``description`` is the line a report lists for
    the source: the printed pattern and its unifier. ``candidate_sources``
    computes it when it builds the source: every encrypted send has its key
    as an atom target, which every source carries, so every description is
    read.
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
    #: an atom's declared level; a variable's from ``variable_levels``
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


def shape_of(term: Message) -> tuple[Message, dict[Message, Message]]:
    """The term with each leaf but its parameters renamed, by first occurrence,
    to ``#0``, ``#1``, … of its own class; with a map from each subterm of that
    shape back to the subterm of the term it stands for.

    ``unify`` sees only a leaf's class, equality and whether it has a rename
    index. No parsed or renamed leaf is named ``#i``, and the shape keeps the
    term's parameters, the only leaves it can share with a renamed-apart
    universe; so the renaming is injective, fixes every universe leaf, and a
    universe term unifies with the shape exactly as with the term, up to the
    renaming. A renamed leaf loses its session tag with its name, so terms
    that differ only in their tags share a shape.
    """
    renamed: dict[Message, Message] = {}
    real: dict[Message, Message] = {}

    def shaped(m: Message) -> Message:
        if isinstance(m, Concat):
            s = Concat(tuple(map(shaped, m.parts)))
        elif isinstance(m, Enc):
            s = Enc(shaped(m.body), shaped(m.key))
        elif m.copy is not None:
            s = m
        else:
            s = renamed.get(m)
            if s is None:
                s = renamed[m] = type(m)(f"#{len(renamed)}")
        real[s] = m
        return s

    return shaped(term), real


def _scan(term: Message, universe: Collection[Enc], memo: dict, summarize: Callable) -> tuple:
    """The analysis's one unification scan: ``summarize`` of the unifiers of
    every universe term with the term's shape, in universe order, kept in
    ``memo`` per shape; with the map back from the shape to the term."""
    shape, real = shape_of(term)
    summary = memo.get(shape)
    if summary is None:
        unifiers = ((p, unify(p, shape)) for p in universe)
        summary = memo[shape] = summarize([(p, sg) for p, sg in unifiers if sg is not None])
    return summary, real


#: The unifiers of each send shape with the patterns, in declaration order.
Scans = dict[Message, list[tuple[Enc, Substitution]]]


def candidate_sources(
    r_plus: Message, patterns: Collection[Enc], scans: Optional[Scans] = None
) -> list[CandidateSource]:
    """Patterns unifiable with the sent message, in declaration order.

    The patterns, renamed apart as ``encryption_patterns`` makes them, are
    unified with the send's shape (``_scan``) and each unifier is mapped
    back to the send. ``scans`` keeps those unifiers per shape for one pattern
    set, so a later send of the same shape unifies nothing; without it the
    call scans afresh.
    """
    scan, real = _scan(r_plus, patterns, {} if scans is None else scans, list)

    def unshaped(t: Message) -> Message:  # a term mixing pattern and shape leaves
        return map_leaves(t, lambda leaf: real.get(leaf, leaf))

    out: list[CandidateSource] = []
    for pattern, sigma in scan:
        # a key is a leaf; a value is most often a subterm of the shape
        mgu = {real.get(k, k): real.get(v) or unshaped(v) for k, v in sigma.items()}
        instance = r_plus if real.keys().isdisjoint(sigma) else apply(mgu, pattern)
        description = f"{format_message(pattern)} via {format_substitution(mgu)}"
        out.append(CandidateSource(pattern, mgu, instance, description))
    return out


def _encryptions(chains: Iterable[list[tuple[Enc, ...]]]) -> Iterable[Enc]:
    """The encryptions of occurrence chains (``occurrences``), each once."""
    return dict.fromkeys(enc for cs in chains for chain in cs for enc in chain)


def variable_levels(
    roles: Sequence[GeneralizedRole], evaluation: Evaluation, patterns: Mapping[Enc, str]
) -> dict[Variable, SecurityLevel]:
    """Per variable that a full role receives in an encryption and some role
    sends: the join of the declared levels of the nonces and keys at body
    positions of every term that its receive encryptions bind it to, unified
    with the encryptions of every payload, nested ones included, kept once
    per renaming: ``patterns``, then the nested encryptions of the forms no
    pattern has, built only when some variable needs a level. A term with
    no secret of its own still counts: a leaf it repeats can bind the
    variable to the receive's own secret. A shape keeps, per variable, the
    leaves at body positions of what it is bound to, and each receive joins
    their levels, its own leaves mapped back. Every message is walked
    through ``evaluation``; its variant is not read."""
    ctx = evaluation.ctx
    join = ctx.lattice.join
    steps = [step for role in full_roles(roles).values() for step in role.steps]
    walks = [(step.direction, evaluation.walk(step.payload)) for step in steps]
    sent = {x for d, occs in walks if d is Direction.SEND for x in occs if isinstance(x, Variable)}
    received = [
        enc for d, occs in walks if d is Direction.RECEIVE
        for enc in _encryptions(cs for x, cs in occs.items() if x in sent)
    ]
    if not received:  # no variable to give a level: the universe is not needed
        return {}
    # an encrypted payload has a pattern's form: only the nested ones may not
    payloads = {step.payload for step in steps}
    nested = (
        (tag, enc) for tag, (_, occs) in enumerate(walks, start=1)
        for enc in _encryptions(occs.values()) if enc not in payloads
    )
    universe = [*patterns, *renamed_by_form(nested, set(patterns.values()))]

    def summarize(unifiers: list) -> dict[Variable, set]:
        summary: dict[Variable, set] = {}
        for _, sigma in unifiers:
            for v, value in sigma.items():
                if type(v) is Variable and v.copy is None:  # a shape variable
                    body = summary.setdefault(v, set())
                    body.update(a for a, cs in evaluation.walk(value).items() if cs)
        return summary

    memo: dict = {}
    levels: dict[Variable, SecurityLevel] = {}
    for enc in received:
        summary, real = _scan(enc, universe, memo, summarize)
        for v, body in summary.items():
            found = (ctx.level_of(real.get(a, a)) for a in body)
            levels[real[v]] = reduce(join, found, levels.get(real[v], BOTTOM))
    return levels


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
    if target not in evaluation.walk(r_plus):
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
    role: GeneralizedRole,
    evaluation: Evaluation,
    patterns: Collection[Enc],
    levels: Mapping[Variable, SecurityLevel],
    scans: Optional[Scans] = None,
) -> list[StepCheck]:
    """Bound comparisons for every atom and every variable of the role's final send;
    ``levels`` is the analysis's ``variable_levels``, where a variable missing
    is public, and ``scans`` its memo of unifiers per send shape."""
    step = role.final
    if step.direction is not Direction.SEND:
        raise ValueError(f"step {step.step_id} of {role.label} is not a send")
    ctx = evaluation.ctx
    received = role.received
    r_plus = step.payload
    sources = candidate_sources(r_plus, patterns, scans) if isinstance(r_plus, Enc) else []
    checks: list[StepCheck] = []
    # atoms, then variables, each in first-occurrence order
    for target in sorted(evaluation.walk(r_plus), key=lambda t: isinstance(t, Variable)):
        received_bound = ctx.lattice.meet_all(evaluation.level(target, m) for m in received)
        declared = levels[target] if target in levels else ctx.level_of(target)
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
    patterns: Mapping[Enc, str],
    ctx: VerificationContext,
    variant: Variant,
) -> list[StepCheck]:
    """The bound comparisons of every send step; secrecy holds when all of them pass.

    Each send is checked once, as the final step of its prefix role, with
    the receives accumulated before it. One evaluation serves every check,
    so a payload that several prefix roles receive is evaluated once; one
    memo of unifiers serves every send, so each send shape is unified with
    the patterns once; the variables' levels are computed once.
    """
    evaluation = Evaluation(variant, ctx)
    scans: Scans = {}
    levels = variable_levels(roles, evaluation, patterns)
    checks: list[StepCheck] = []
    for role in roles:
        if role.steps and role.final.direction is Direction.SEND:
            checks.extend(check_step(role, evaluation, patterns, levels, scans))
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
        (a for a in leaves(step.payload) if isinstance(a, Atom) and a.name == challenge.challenge),
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
    """Convenience: the roles and the patterns of a parsed narration, each
    pattern mapped to its canonical form."""
    roles = extract_roles(narration, ctx)
    return roles, encryption_patterns(roles)
