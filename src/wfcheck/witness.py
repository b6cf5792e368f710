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
serves sends and receives: terms of one shape, equal once their leaves are
renamed by first occurrence, unify alike, so each shape is unified with
each universe term once per analysis. One walk of a term gives its shape,
as a token key, and its subterms; the scan keeps what it found by position,
so each term of the shape maps it back by list indexing.

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
from .lattice import BOTTOM, TOP, SecurityLevel
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

    ``mgu`` is the unifier with the sent message, or, for a later send of a
    shape, the first send's unifier mapped back by position. ``instance`` is
    the pattern under the unifier. When the unifier binds no leaf of the sent message, that is
    the sent message itself (the very object), since a unifier maps the
    pattern and the message to one term. ``description`` is the line a
    report lists for the source: the printed pattern and its unifier, with
    the bindings in the order of their printed keys. ``candidate_sources``
    computes it when it builds the source: every encrypted send has its key
    as an atom target, which every source carries, so every description is
    read. Whether the instance is the send, and the order of the
    bindings when the keys alone fix it, are found once per shape and
    pattern.
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


def shape_of(term: Message) -> tuple[tuple, list[Message]]:
    """The term's shape as a flat token key, and its subterms in preorder
    (body before key), from one walk. The key has a token per subterm: a
    concatenation's arity, ``Enc``, each parameter as it is, and each other
    leaf as its class and first-occurrence index among those leaves.

    Terms have one key exactly when renaming their leaves but the
    parameters by first occurrence makes them equal, session tags dropped.
    ``unify`` sees only a leaf's class, equality and rename index, and a
    renamed-apart universe shares no leaf with a term but its parameters;
    so a universe term unifies with such terms alike, up to the renaming,
    which maps one term's subterm at each preorder position to the other's.
    """
    key: list = []
    subterms: list[Message] = []
    renamed: dict[Message, int] = {}
    stack = [term]
    while stack:
        m = stack.pop()
        subterms.append(m)
        kind = type(m)
        if kind is Concat:
            key.append(len(m.parts))
            stack.extend(reversed(m.parts))
        elif kind is Enc:
            key.append(Enc)
            stack += (m.key, m.body)
        elif m.copy is not None:
            key.append(m)
        else:
            key.append((kind, renamed.setdefault(m, len(renamed))))
    return tuple(key), subterms


def _scan(term: Message, universe: Collection[Enc], memo: dict, summarize: Callable) -> tuple:
    """The analysis's one unification scan: the unifiers of every universe
    term with the term, in universe order, kept in ``memo`` per shape
    (``shape_of``). Only a shape's first term is unified; it gets its own
    unifiers and no table (``None``). A later term gets ``summarize(unifiers,
    place)`` of them, made once, and its table. ``place`` puts a subterm of
    the first term at its negative preorder position, where the table ends
    with each term's own subterms, and any other term among the constants
    before them; a term mixing both kinds of leaves has no place (``None``).
    """
    key, subterms = shape_of(term)
    entry = memo.get(key)
    if entry is None:
        unifiers = ((p, unify(p, term)) for p in universe)
        memo[key] = [[(p, sg) for p, sg in unifiers if sg is not None], subterms, None]
        return memo[key][0], None
    unifiers, first, placed = entry
    if placed is None:
        # equal subterms of a term stand at the same positions in every term of its shape
        places = dict(zip(first, range(-len(first), 0)))
        constants: list[Message] = []

        def place(t: Message) -> Optional[int]:
            at = places.get(t)
            if at is None:
                if type(t) in (Concat, Enc) and any(places.get(a, 0) < 0 for a in leaves(t)):
                    return None
                at = places[t] = len(constants)
                constants.append(t)
            return at

        placed = entry[2] = summarize(unifiers, place), constants
    summary, constants = placed
    return summary, constants + subterms


def _sources_by_place(unifiers: list, place: Callable) -> list[tuple]:
    """Per unifier of a send with a pattern: the pattern, its bindings by
    ``_scan`` place, the values mixing send and pattern leaves with the
    places of their leaves, whether the instance is the send (no key is a
    leaf of the send), the description's head, and the order of its
    bindings when pattern leaves with texts of their own are the keys."""
    rows = []
    for pattern, sigma in unifiers:
        bindings = [(place(k), place(v)) for k, v in sigma.items()]
        is_send = all(k >= 0 for k, _ in bindings)
        mixed = [
            (k, v, {a: place(a) for a in leaves(v)})
            for (k, at), v in zip(bindings, sigma.values()) if at is None
        ]
        order = None
        if mixed:
            bindings = [(k, at) for k, at in bindings if at is not None]
        elif is_send:
            texts = [format_message(k) for k in sigma]
            if len(set(texts)) == len(texts):
                order = [(f"{text} -> ", at) for text, (_, at) in sorted(zip(texts, bindings))]
        rows.append((pattern, bindings, mixed, is_send, f"{format_message(pattern)} via ", order))
    return rows


#: Per send shape: the unifiers of its first send with the patterns, in
#: declaration order, that send's subterms, and, once a second send asks,
#: the unifiers by place (``_sources_by_place``) with the constants they place.
Scans = dict[tuple, list]


def candidate_sources(
    r_plus: Message, patterns: Collection[Enc], scans: Optional[Scans] = None
) -> list[CandidateSource]:
    """Patterns unifiable with the sent message, in declaration order.

    The patterns, renamed apart as ``encryption_patterns`` makes them, are
    unified with the send (``_scan``), and each unifier is mapped back to it
    by position. ``scans`` keeps those unifiers per shape for one pattern
    set, so a later send of the same shape unifies nothing; without it the
    call scans afresh.
    """
    rows, table = _scan(r_plus, patterns, {} if scans is None else scans, _sources_by_place)
    out: list[CandidateSource] = []
    if table is None:  # the shape's first send: the unifiers are its own
        own = set(leaves(r_plus))
        for pattern, mgu in rows:
            instance = r_plus if own.isdisjoint(mgu) else apply(mgu, pattern)
            description = f"{format_message(pattern)} via {format_substitution(mgu)}"
            out.append(CandidateSource(pattern, mgu, instance, description))
        return out
    for pattern, bindings, mixed, is_send, head, order in rows:
        mgu = {table[k]: table[v] for k, v in bindings}
        for k, v, spots in mixed:
            mgu[table[k]] = map_leaves(v, lambda a: table[spots[a]])
        instance = r_plus if is_send else apply(mgu, pattern)
        if order is None:
            description = head + format_substitution(mgu)
        else:
            pairs = [arrow + format_message(table[v]) for arrow, v in order]
            description = head + "{" + ", ".join(pairs) + "}"
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

    def summarize(unifiers: list, place: Callable) -> dict[int, set[int]]:
        summary: dict[int, set[int]] = {}
        for _, sigma in unifiers:
            for v, value in sigma.items():
                if type(v) is Variable and v.copy is None:  # a variable of the receive
                    body = summary.setdefault(place(v), set())
                    body.update(place(a) for a, cs in evaluation.walk(value).items() if cs)
        return summary

    def itself(t: Message) -> Message:
        return t

    memo: dict = {}
    levels: dict[Variable, SecurityLevel] = {}
    for enc in received:
        summary, table = _scan(enc, universe, memo, summarize)
        look = itself if table is None else table.__getitem__
        if table is None:  # the shape's first receive: its unifiers are its own
            summary = summarize(summary, itself)
        for v, body in summary.items():
            found = {ctx.level_of(look(a)) for a in body}  # each distinct level joined once
            levels[look(v)] = reduce(join, found, levels.get(look(v), BOTTOM))
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

    ``sources`` are the candidate sources of ``r_plus``. Every source carries
    an atom, so for an atom one source per distinct instance gives the same
    bound. Unencrypted sends have none; the target is evaluated on the sent
    message directly.
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
    is public, and ``scans`` its memo of unifiers per send shape. A target's
    upper bound is read from ``evaluation.upper_bounds`` of the role's
    receives, ⊤ when it is at no body position of them. The send's
    descriptions and distinct instances are found once: every source carries
    an atom, whose check shares both, and a variable's check shares the
    descriptions when every source carries it."""
    step = role.final
    if step.direction is not Direction.SEND:
        raise ValueError(f"step {step.step_id} of {role.label} is not a send")
    ctx = evaluation.ctx
    upper = evaluation.upper_bounds(role.received)
    r_plus = step.payload
    sources = candidate_sources(r_plus, patterns, scans) if isinstance(r_plus, Enc) else []
    every = tuple(source.description for source in sources)
    distinct = list({source.instance: source for source in sources}.values())
    checks: list[StepCheck] = []
    # atoms, then variables, each in first-occurrence order
    for target in sorted(evaluation.walk(r_plus), key=lambda t: isinstance(t, Variable)):
        received_bound = upper.get(target, TOP)
        declared = levels[target] if target in levels else ctx.level_of(target)
        if isinstance(target, Variable):
            lower, carriers = lower_bound(evaluation, target, r_plus, sources)
            listed = every if len(carriers) == len(sources) else tuple(
                source.description for source, _ in carriers
            )
        else:
            lower, listed = lower_bound(evaluation, target, r_plus, distinct)[0], every
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
                sources=listed,
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
    the patterns once; the variables' levels are computed once. The
    evaluation keeps one running meet per receive prefix, so each receive
    of an owner is met into its upper bounds once.
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
