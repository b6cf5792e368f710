"""A bounded active intruder, for tests only: an independent judge of a
secrecy PASS and of an authentication PASS.

The static criterion is sufficient, not necessary, so its worst error is a
PASS on a protocol that is insecure in the model. This search looks for the
attack itself. Each full role of the narration runs once per session, as an
instance: the role's session-tagged atoms take the session's tag, and its
variables the session as their rename index. Atoms get tags, not rename
indices, since ``unify`` treats an atom with a rename index as a parameter.
All variables of all instances are distinct, so one substitution holds
every binding made so far.

The intruder is the network. It starts with every identity, the atoms the
context says it knows, and each declared atom whose level admits it, with
the atom's session copies. Its knowledge is kept analysed: closed under
unpairing and decryption with held keys (``deduction.decompose``). An
instance's sends run as soon as they are next, since knowledge only grows
and the intruder may ignore a message. A receive branches over the ground
terms the intruder can build that unify with the receive's pattern: a known
message, a concatenation of built parts, or an encryption of a built body
under a known key. A variable stands for a known atom, a known encryption,
or an encryption of a known atom under a known key; never for a
concatenation, so type-flaw attacks are out of reach. Terms are built one
at a time, in a fixed order, and at most ``MAX_CANDIDATES`` are tried per
receive. A state
is the instances' program counters, the bindings and the knowledge; each is
visited once.

``search`` takes the instances and a goal, a test on each state; two goals
are given. Secrecy (``leak``): the intruder knows an atom whose declared
level excludes it. Aliveness (``finished``; Lowe, "A hierarchy of
authentication specifications", CSFW 1997): a verifier instance completes
although the claimant never ran. For it the claimant's instances are
dropped, and one more session, tagged ``x``, runs the other roles with the
intruder as the claimant: a leaf substitution puts ``I`` for the claimant
and the intruder's key for the claimant's long-term key, which the context
must declare at a level naming ``I``. The verifier's instance in that
session talks to ``I``, so its completion is no attack.

This is a ground, bounded form of the lazy intruder of OFMC (Basin,
Mödersheim and Viganò, ESORICS 2003), in the setting of Rusinowitch and
Turuani (CSFW 2001) and Millen and Shmatikov (CCS 2001). Sessions and
candidates are bounded, so finding no leak is bounded evidence, not a proof.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, NamedTuple, Optional

from wfcheck import VerificationContext
from wfcheck.context import INTRUDER_NAME
from wfcheck.protocol import Direction, Narration, extract_roles, full_roles
from wfcheck.terms import (
    Atom, Concat, Enc, Message, Nonce, SymKey, Variable, apply, concat, format_message,
    map_leaves, unify, vars_of,
)

from deduction import decompose, intruder_knowledge

#: the most ground terms tried at one receive
MAX_CANDIDATES = 40
#: the tag of the session in which the intruder plays the claimant
INTRUDER_SESSION = "x"


class Search(NamedTuple):
    """What one search found."""

    #: what the goal returned at the first state that reached it, or None
    reached: object
    #: the receives that led there, each as ``instance step <- term``
    trace: tuple[str, ...]
    #: the states visited
    states: int
    #: the receives at which candidates past ``MAX_CANDIDATES`` were left untried
    cut: int


class _Step(NamedTuple):
    sends: bool
    label: str
    payload: Message
    #: the variables of this step and the instance's later steps
    later: frozenset[Variable]


class Instance(NamedTuple):
    """One full role run in one session."""

    owner: str
    #: the session's tag, which its fresh atoms carry
    tag: str
    steps: tuple[_Step, ...]


#: what a search looks for: given the program counters and the knowledge of
#: a state, something (the search's ``reached``) or None
Goal = Callable[[tuple[int, ...], frozenset], object]


def instances(
    narration: Narration,
    ctx: VerificationContext,
    sessions: int,
    claimant: Optional[str] = None,
    intruder_as: Optional[Mapping[Atom, Atom]] = None,
) -> list[Instance]:
    """Each full role's steps, once per session, tagged with the session. With
    a ``claimant``, its roles are dropped and one more session runs the others
    with each leaf that ``intruder_as`` names replaced."""
    roles = full_roles(extract_roles(narration, ctx)).values()
    runs = [(str(session), session, {}) for session in range(1, sessions + 1)]
    if claimant is not None:
        runs.append((INTRUDER_SESSION, sessions + 1, intruder_as or {}))
    out = []
    for tag, index, replaced in runs:

        def copy(t: Message) -> Message:
            t = replaced.get(t, t)
            if isinstance(t, Variable):
                return Variable(t.name, index)
            if isinstance(t, (Nonce, SymKey)) and t.session is not None:
                return t._replace(session=tag)
            return t

        for role in roles:
            if role.owner == claimant:
                continue
            steps, later = [], frozenset()
            for s in reversed(role.steps):
                payload = map_leaves(s.payload, copy)
                later |= vars_of(payload)
                label = f"{role.owner}#{tag} {s.step_id}"
                steps.append(_Step(s.direction is Direction.SEND, label, payload, later))
            out.append(Instance(role.owner, tag, tuple(reversed(steps))))
    return out


def initial_knowledge(ctx: VerificationContext, tags) -> frozenset[Message]:
    """The identities, the ``intruder knows`` atoms, and each declared atom whose
    level admits the intruder, with its copies for the session ``tags``; analysed."""
    known = set(intruder_knowledge(ctx))
    for decl in ctx.decls.values():
        if INTRUDER_NAME in decl.level:
            known.add(decl.atom)
            if decl.fresh_by is not None:
                known.update(decl.atom._replace(session=tag) for tag in tags)
    decompose(known, ctx)
    return frozenset(known)


def _built(p: Message, sigma: dict, known, atoms, encs, keys) -> Iterator[tuple[Message, dict]]:
    """Each ground term the intruder can build in the shape of ``p``, one at a
    time, with ``sigma`` extended to bind the variables of ``p`` to its parts.
    A variable that ``sigma`` binds stands for its binding only."""
    if isinstance(p, Variable):
        if p in sigma:
            yield sigma[p], sigma
            return
        for t in (*atoms, *encs, *(Enc(a, k) for a in atoms for k in keys)):
            yield t, {**sigma, p: t}
    elif isinstance(p, Atom):
        if p in known:
            yield p, sigma
    elif isinstance(p, Concat):
        for parts, bound in _products(p.parts, sigma, known, atoms, encs, keys):
            yield concat(parts), bound
    else:
        pattern = apply(sigma, p) if sigma else p
        # an atom with no rename index is a constant: it unifies with itself alone
        fixed = isinstance(pattern.key, Atom) and pattern.key.copy is None
        for e in encs:
            unifier = None if fixed and e.key != pattern.key else unify(pattern, e)
            if unifier is not None:
                yield e, {**sigma, **unifier}
        for key, keyed in _built(p.key, sigma, known, atoms, encs, keys):
            if key in keys:
                for body, bound in _built(p.body, keyed, known, atoms, encs, keys):
                    yield Enc(body, key), bound


def _products(parts, sigma, known, atoms, encs, keys):
    """Each choice of a built term per part, the bindings threaded left to right."""
    if not parts:
        yield (), sigma
        return
    for first, bound in _built(parts[0], sigma, known, atoms, encs, keys):
        for rest, done in _products(parts[1:], bound, known, atoms, encs, keys):
            yield (first,) + rest, done


def _vocabulary(known: frozenset[Message]) -> tuple[list, list, list]:
    """The known atoms and encryptions, each in order of printed form, and
    the known keys: what ``_built`` builds from."""
    atoms = sorted((t for t in known if isinstance(t, Atom)), key=format_message)
    encs = sorted((t for t in known if isinstance(t, Enc)), key=format_message)
    return atoms, encs, [t for t in atoms if isinstance(t, SymKey)]


def _candidates(pattern: Message, known: frozenset[Message], vocabulary):
    """The first ``MAX_CANDIDATES`` distinct terms built for ``pattern`` from
    ``known`` and its ``vocabulary``, each as ``(text, bindings)``, and
    whether any were left untried."""
    atoms, encs, keys = vocabulary
    found: dict[Message, tuple[str, dict]] = {}
    for term, sigma in _built(pattern, {}, known, atoms, encs, keys):
        if term not in found:  # a known encryption may also be built
            if len(found) == MAX_CANDIDATES:
                return list(found.values()), True
            found[term] = (format_message(term), sigma)
    return list(found.values()), False


def leak(ctx: VerificationContext) -> Goal:
    """The secrecy goal: the first atom, by its printed form, that the intruder
    knows against its declared level."""

    def reached(pcs, known):
        secret = [
            t for t in known if isinstance(t, Atom) and INTRUDER_NAME not in ctx.level_of(t)
        ]
        return min(secret, key=format_message) if secret else None

    return reached


def finished(programs: list[Instance], verifier: str) -> Goal:
    """The aliveness goal: the first instance of ``verifier`` outside the
    intruder's session that has run all its steps, as ``owner#tag``."""
    honest = [
        (i, f"{p.owner}#{p.tag}") for i, p in enumerate(programs)
        if p.owner == verifier and p.tag != INTRUDER_SESSION
    ]

    def reached(pcs, known):
        return next((name for i, name in honest if pcs[i] == len(programs[i].steps)), None)

    return reached


def search(
    programs: list[Instance],
    ctx: VerificationContext,
    goal: Goal,
    max_states: Optional[int] = None,
) -> Search:
    """Search every interleaving of the instances ``programs``, depth first, for
    a state that reaches ``goal``. A binding is kept only while a later step
    of its instance uses it, so states that differ in a spent binding alone
    are one state. Past ``max_states`` states, a ``RuntimeError`` says the
    bound was too small."""
    steps = [p.steps for p in programs]

    def run_sends(i: int, pcs: list, bindings: dict, known: set) -> None:
        program = steps[i]
        while pcs[i] < len(program) and program[pcs[i]].sends:
            sent = apply(bindings, program[pcs[i]].payload)
            assert not vars_of(sent), f"{program[pcs[i]].label} sends an unbound variable"
            known.add(sent)
            pcs[i] += 1
        decompose(known, ctx)

    pcs = [0] * len(steps)
    known = set(initial_knowledge(ctx, dict.fromkeys(p.tag for p in programs)))
    for i in range(len(steps)):
        run_sends(i, pcs, {}, known)
    stack = [(tuple(pcs), {}, frozenset(known), ())]
    seen: set = set()
    cut = 0
    while stack:
        pcs, bindings, known, trace = stack.pop()
        key = (pcs, frozenset(bindings.items()), known)
        if key in seen:
            continue
        seen.add(key)
        if max_states is not None and len(seen) > max_states:
            raise RuntimeError(f"more than {max_states} states")
        reached = goal(pcs, known)
        if reached is not None:
            return Search(reached, trace, len(seen), cut)
        vocabulary = _vocabulary(known)
        for i, program in reversed(list(enumerate(steps))):  # the first instance first
            if pcs[i] == len(program):
                continue
            step = program[pcs[i]]
            found, more = _candidates(apply(bindings, step.payload), known, vocabulary)
            cut += more
            for text, sigma in reversed(found):
                after, grown, bound = list(pcs), set(known), {**bindings, **sigma}
                after[i] += 1
                run_sends(i, after, bound, grown)
                live = program[after[i]].later if after[i] < len(program) else frozenset()
                spent = program[0].later - live
                bound = {v: t for v, t in bound.items() if v not in spent}
                path = trace + (f"{step.label} <- {text}",)
                stack.append((tuple(after), bound, frozenset(grown), path))
    return Search(None, (), len(seen), cut)


def secrecy(
    narration: Narration, ctx: VerificationContext, sessions: int = 2,
    max_states: Optional[int] = None,
) -> Search:
    """A search of ``sessions`` sessions of every role for a leak."""
    return search(instances(narration, ctx, sessions), ctx, leak(ctx), max_states)


def aliveness(
    narration: Narration, ctx: VerificationContext, intruder_as: Mapping[Atom, Atom],
    sessions: int = 1, max_states: Optional[int] = None,
) -> Search:
    """A search, for an attack on the aliveness of the context's challenge
    claimant to its verifier, of ``sessions`` sessions of the roles but the
    claimant's, plus the intruder's session (see the module docstring)."""
    challenge = ctx.challenge
    programs = instances(narration, ctx, sessions, challenge.claimant, intruder_as)
    return search(programs, ctx, finished(programs, challenge.verifier), max_states)
