"""A bounded active intruder, for tests only: an independent judge of a
secrecy PASS.

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
visited once. A leak is a known atom whose declared level excludes the
intruder.

This is a ground, bounded form of the lazy intruder of OFMC (Basin,
Mödersheim and Viganò, ESORICS 2003), in the setting of Rusinowitch and
Turuani (CSFW 2001) and Millen and Shmatikov (CCS 2001). Sessions and
candidates are bounded, so finding no leak is bounded evidence, not a proof.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

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


class Search(NamedTuple):
    """What one search found."""

    #: the first atom the intruder learnt against its level, or None
    leaked: Optional[Atom]
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


def _instances(narration: Narration, ctx: VerificationContext, sessions: int):
    """Each full role's steps, once per session, tagged with the session."""
    out = []
    for session in range(1, sessions + 1):
        tag = str(session)

        def copy(t: Message) -> Message:
            if isinstance(t, Variable):
                return Variable(t.name, session)
            if isinstance(t, (Nonce, SymKey)) and t.session is not None:
                return t._replace(session=tag)
            return t

        for role in full_roles(extract_roles(narration, ctx)).values():
            steps, later = [], frozenset()
            for s in reversed(role.steps):
                payload = map_leaves(s.payload, copy)
                later |= vars_of(payload)
                label = f"{role.owner}#{tag} {s.step_id}"
                steps.append(_Step(s.direction is Direction.SEND, label, payload, later))
            out.append(tuple(reversed(steps)))
    return out


def initial_knowledge(ctx: VerificationContext, sessions: int) -> frozenset[Message]:
    """The identities, the ``intruder knows`` atoms, and each declared atom whose
    level admits the intruder, with its session copies; analysed."""
    known = set(intruder_knowledge(ctx))
    for decl in ctx.decls.values():
        if INTRUDER_NAME in decl.level:
            known.add(decl.atom)
            if decl.fresh_by is not None:
                known.update(decl.atom._replace(session=str(s)) for s in range(1, sessions + 1))
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
        for e in encs:
            unifier = unify(apply(sigma, p), e)
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


def _candidates(pattern: Message, known: frozenset[Message]):
    """The first ``MAX_CANDIDATES`` distinct terms built for ``pattern``, each as
    ``(text, bindings)``, and whether any were left untried."""
    atoms = sorted((t for t in known if isinstance(t, Atom)), key=format_message)
    encs = sorted((t for t in known if isinstance(t, Enc)), key=format_message)
    keys = [t for t in atoms if isinstance(t, SymKey)]
    found: dict[Message, tuple[str, dict]] = {}
    for term, sigma in _built(pattern, {}, known, atoms, encs, keys):
        if term not in found:  # a known encryption may also be built
            if len(found) == MAX_CANDIDATES:
                return list(found.values()), True
            found[term] = (format_message(term), sigma)
    return list(found.values()), False


def _leak(known: frozenset[Message], ctx: VerificationContext) -> Optional[Atom]:
    secret = [
        t for t in known if isinstance(t, Atom) and INTRUDER_NAME not in ctx.level_of(t)
    ]
    return min(secret, key=format_message) if secret else None


def search(
    narration: Narration,
    ctx: VerificationContext,
    sessions: int = 2,
    max_states: Optional[int] = None,
) -> Search:
    """Search every interleaving of ``sessions`` sessions, depth first, for a
    state in which the intruder knows an atom against its level. A binding is
    kept only while a later step of its instance uses it, so states that
    differ in a spent binding alone are one state. Past ``max_states``
    states, a ``RuntimeError`` says the bound was too small."""
    programs = _instances(narration, ctx, sessions)

    def run_sends(i: int, pcs: list, bindings: dict, known: set) -> None:
        program = programs[i]
        while pcs[i] < len(program) and program[pcs[i]].sends:
            sent = apply(bindings, program[pcs[i]].payload)
            assert not vars_of(sent), f"{program[pcs[i]].label} sends an unbound variable"
            known.add(sent)
            pcs[i] += 1
        decompose(known, ctx)

    pcs, known = [0] * len(programs), set(initial_knowledge(ctx, sessions))
    for i in range(len(programs)):
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
        leaked = _leak(known, ctx)
        if leaked is not None:
            return Search(leaked, trace, len(seen), cut)
        for i, program in reversed(list(enumerate(programs))):  # the first instance first
            if pcs[i] == len(program):
                continue
            step = program[pcs[i]]
            found, more = _candidates(apply(bindings, step.payload), known)
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
