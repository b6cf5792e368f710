"""Randomized invariant suites.

Each suite is a list of callables (mostly hypothesis properties); the
``CASES`` counter records every individually checked case so the
acceptance harness can assert coverage. Suites marked with a 500-case
minimum back the randomized acceptance criterion.
"""

import copy
import itertools
import pathlib
import pickle
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcheck import (
    BOTTOM,
    TOP,
    Atom,
    Concat,
    Enc,
    Evaluation,
    Identity,
    Lattice,
    Nonce,
    SecurityLevel,
    SymKey,
    Variable,
    analyze_narration,
    apply,
    atoms_of,
    candidate_sources,
    check_secrecy,
    concat,
    f_prime,
    format_message,
    load_context,
    load_narration,
    lower_bound,
    parse_context,
    parse_narration,
    rename_apart,
    unify,
    vars_of,
)
from wfcheck.protocol import Direction
from wfcheck.safefun import Variant
from wfcheck.terms import map_leaves, ordered_atoms, ordered_vars

from bounds import bound_ordering_check
from deduction import intruder_knowledge, saturate
from derivation import EMPTY, derive, derive_vars
from derivation import concat as derived_concat
from evaluation import psi, select
from messages import assert_only_pattern_leaves_are_renamed, erase_copies, parse_message
from unification import reference_unify

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"

CASES = defaultdict(int)

# ---------------------------------------------------------------------------
# Shared strategies

PRINCIPALS6 = ("A", "B", "C", "D", "E", "I")
LAT6 = Lattice.over(*PRINCIPALS6)

levels6 = st.one_of(
    st.just(BOTTOM),
    st.frozensets(st.sampled_from(PRINCIPALS6), max_size=6).map(
        lambda s: SecurityLevel.of(*s)
    ),
)

PROP_CTX = parse_context(
    "principals A, B, S, I\n"
    "key kas shared(A,S)\n"
    "key kbs shared(B,S)\n"
    "key kab fresh(A) level {A,B,S}\n"
    "nonce Nb fresh(B) level public\n"
    "nonce Ns fresh(S) level {B,S}\n"
    "nonce Nx fresh(A) level {A,B}\n"
)

GROUND_ATOMS = (
    Identity("A"), Identity("B"), Identity("S"),
    Nonce("Nb"), Nonce("Ns"), Nonce("Nx"),
    SymKey("kas"), SymKey("kbs"), SymKey("kab"),
)
KEYS = (SymKey("kas"), SymKey("kbs"), SymKey("kab"))
VARS = tuple(Variable(n) for n in "XYZUVW")


def _msgs(leaves, max_leaves=5):
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(concat),
            st.tuples(kids, st.sampled_from(KEYS)).map(lambda t: Enc(t[0], t[1])),
        ),
        max_leaves=max_leaves,
    )


ground_messages = _msgs(st.sampled_from(GROUND_ATOMS))
open_messages = _msgs(st.one_of(st.sampled_from(GROUND_ATOMS), st.sampled_from(VARS)))
variants = st.sampled_from(list(Variant))


def _leaves(m):
    if isinstance(m, Concat):
        for p in m.parts:
            yield from _leaves(p)
    elif isinstance(m, Enc):
        yield from _leaves(m.body)
        yield m.key
    else:
        yield m


def _subterms(m):
    yield m
    if isinstance(m, Concat):
        for p in m.parts:
            yield from _subterms(p)
    elif isinstance(m, Enc):
        yield from _subterms(m.body)


# ---------------------------------------------------------------------------
# Suite: lattice laws

@given(a=levels6, b=levels6)
def law_meet_join_commute(a, b):
    assert LAT6.meet(a, b) == LAT6.meet(b, a)
    assert LAT6.join(a, b) == LAT6.join(b, a)
    CASES["lattice"] += 1


@given(a=levels6, b=levels6, c=levels6)
def law_meet_join_associate(a, b, c):
    assert LAT6.meet(LAT6.meet(a, b), c) == LAT6.meet(a, LAT6.meet(b, c))
    assert LAT6.join(LAT6.join(a, b), c) == LAT6.join(a, LAT6.join(b, c))
    CASES["lattice"] += 1


@given(a=levels6, b=levels6)
def law_idempotence(a, b):
    for lv in (a, b):
        assert LAT6.meet(lv, lv) == LAT6.canon(lv)
        assert LAT6.join(lv, lv) == LAT6.canon(lv)
        CASES["lattice"] += 1


@given(a=levels6, b=levels6)
def law_absorption(a, b):
    assert LAT6.meet(a, LAT6.join(a, b)) == LAT6.canon(a)
    assert LAT6.join(a, LAT6.meet(a, b)) == LAT6.canon(a)
    CASES["lattice"] += 1


@given(a=levels6, b=levels6)
def law_order_characterizations(a, b):
    leq = LAT6.leq(a, b)
    assert leq == (LAT6.meet(a, b) == LAT6.canon(a))
    assert leq == (LAT6.join(a, b) == LAT6.canon(b))
    CASES["lattice"] += 1


@given(a=levels6, b=levels6, c=levels6)
def law_partial_order(a, b, c):
    assert LAT6.leq(a, a)
    if LAT6.leq(a, b) and LAT6.leq(b, a):
        assert LAT6.canon(a) == LAT6.canon(b)
    if LAT6.leq(a, b) and LAT6.leq(b, c):
        assert LAT6.leq(a, c)
    assert LAT6.leq(BOTTOM, a) and LAT6.leq(a, TOP)
    CASES["lattice"] += 1


LATTICE_SUITE = [
    law_meet_join_commute,
    law_meet_join_associate,
    law_idempotence,
    law_absorption,
    law_order_characterizations,
    law_partial_order,
]


# ---------------------------------------------------------------------------
# Suite: derivation laws

@given(m=open_messages, x=st.sampled_from(VARS))
def law_derive_leaf_rules(m, x):
    removed = frozenset({x})
    for leaf in _leaves(m):
        got = derive_vars(leaf, removed)
        if leaf == x:
            assert got is EMPTY
        else:
            assert got == leaf
        CASES["derivation"] += 1


@given(parts=st.lists(open_messages, min_size=2, max_size=3),
       body=open_messages, key=st.sampled_from(KEYS),
       xs=st.frozensets(st.sampled_from(VARS), max_size=3))
def law_derive_homomorphic(parts, body, key, xs):
    assert derive_vars(concat(parts), xs) == derived_concat(derive_vars(p, xs) for p in parts)
    CASES["derivation"] += 1
    assert derive_vars(Enc(body, key), xs) == Enc(derive_vars(body, xs), key)
    CASES["derivation"] += 1


@given(m=open_messages,
       s1=st.frozensets(st.sampled_from(VARS), max_size=3),
       s2=st.frozensets(st.sampled_from(VARS), max_size=3))
def law_derive_set_union_composes(m, s1, s2):
    assert derive_vars(m, s1 | s2) == derive_vars(derive_vars(m, s2), s1)
    CASES["derivation"] += 1
    assert derive_vars(derive_vars(m, s1), s2) == derive_vars(derive_vars(m, s2), s1)
    CASES["derivation"] += 1


@given(m=open_messages, target=st.sampled_from(GROUND_ATOMS + VARS), v=variants)
@settings(max_examples=150)
def law_evaluation_ignores_derivation(m, target, v):
    # the paper evaluates the derived message; a selection never holds a
    # variable, so evaluating the message as it is gives the same level
    keep = target if isinstance(target, Variable) else None
    derived = derive(m, keep=keep)
    assert f_prime(v, target, m, PROP_CTX) == f_prime(v, target, derived, PROP_CTX)
    CASES["derivation"] += 1


DERIVATION_SUITE = [
    law_derive_leaf_rules,
    law_derive_homomorphic,
    law_derive_set_union_composes,
    law_evaluation_ignores_derivation,
]


# ---------------------------------------------------------------------------
# Suite: well-formedness of the evaluation

@given(a=st.sampled_from(GROUND_ATOMS), v=variants,
       m1=st.lists(ground_messages, max_size=3), m2=st.lists(ground_messages, max_size=3))
@settings(max_examples=200)
def law_wellformed_equalities(a, v, m1, m2):
    def over(msgs):
        return PROP_CTX.lattice.meet_all(f_prime(v, a, m, PROP_CTX) for m in msgs)

    assert f_prime(v, a, a, PROP_CTX) == BOTTOM
    CASES["wellformed"] += 1
    union = over(m1 + m2)
    split = PROP_CTX.lattice.meet(over(m1), over(m2))
    assert union == split
    CASES["wellformed"] += 1
    without = [m for m in m1 + m2 if a not in atoms_of(m)]
    assert over(without) == TOP
    CASES["wellformed"] += 1


@given(msgs=st.lists(open_messages, min_size=1, max_size=2))
@settings(max_examples=100)
def law_memoized_evaluation_matches_the_per_target_walk(msgs):
    # one evaluation per variant serves every message and target, twice:
    # the second pass reads the memo
    for v in Variant:
        evaluation = Evaluation(v, PROP_CTX)
        for _ in range(2):
            for m in msgs:
                for target in GROUND_ATOMS + VARS:
                    expected = psi(select(v, target, m, PROP_CTX), PROP_CTX)
                    assert evaluation.level(target, m) == expected
                    CASES["wellformed"] += 1


WELLFORMED_SUITE = [
    law_wellformed_equalities,
    law_memoized_evaluation_matches_the_per_target_walk,
]


# ---------------------------------------------------------------------------
# Suite: unification

@given(m1=open_messages, m2=open_messages)
@settings(max_examples=150)
def law_unify_sound_and_idempotent(m1, m2):
    sigma = unify(m1, m2)
    if sigma is not None:
        assert apply(sigma, m1) == apply(sigma, m2)
        for probe in (m1, m2):
            once = apply(sigma, probe)
            assert apply(sigma, once) == once
    CASES["unify"] += 1


@given(g=ground_messages, data=st.data())
@settings(max_examples=150)
def law_unify_general_on_ground_instances(g, data):
    # abstract some subterms of a ground message into variables, then check
    # the resulting pattern unifies back onto the original instance
    pool = list(dict.fromkeys(_subterms(g)))
    chosen = data.draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    mapping = {}
    fresh = iter(VARS)

    def abstract(t):
        if t in mapping:
            return mapping[t]
        if t in chosen:
            try:
                mapping[t] = next(fresh)
            except StopIteration:
                return t
            return mapping[t]
        if isinstance(t, Enc):
            return Enc(abstract(t.body), t.key)
        if isinstance(t, Concat):
            return concat(abstract(p) for p in t.parts)
        return t

    pattern = abstract(g)
    sigma = unify(pattern, g)
    assert sigma is not None
    assert apply(sigma, pattern) == g
    CASES["unify"] += 1


@given(x=st.sampled_from(VARS), body=ground_messages, key=st.sampled_from(KEYS))
@settings(max_examples=100)
def law_unify_occurs_check(x, body, key):
    assert unify(x, Enc(concat([x, body]), key)) is None
    CASES["unify"] += 1


@given(m=open_messages, sub=st.dictionaries(st.sampled_from(VARS), ground_messages, max_size=3))
@settings(max_examples=150)
def law_substitution_idempotent(m, sub):
    assert apply(sub, apply(sub, m)) == apply(sub, m)
    CASES["unify"] += 1


def _rebuilt(m):
    """Equal copies of ``m``, each built along another path."""
    yield parse_message(format_message(m), PROP_CTX.resolve_atom)
    yield map_leaves(m, lambda t: t)
    yield erase_copies(rename_apart(m, 7))
    yield copy.deepcopy(m)
    yield pickle.loads(pickle.dumps(m))
    if isinstance(m, Concat):
        yield concat(list(m.parts))
    if isinstance(m, (Concat, Enc)):
        yield m._replace()


@given(m=open_messages)
@settings(max_examples=150)
def law_equal_terms_hash_equal(m):
    # compound terms keep the hash computed when they were built
    for same in _rebuilt(m):
        assert same == m and hash(same) == hash(m)
        for part, other in zip(_subterms(same), _subterms(m)):
            assert part == other and hash(part) == hash(other)
    CASES["unify"] += 1


@given(data=st.data())
@settings(max_examples=60)
def law_unify_general_on_corpus_patterns(data):
    # instantiate a generated pattern with arbitrary same-kind atoms for its
    # parameters and ground terms for its variables; the pattern must unify
    # back onto the instance and reproduce it
    ctx = load_context(CORPUS / "woolam_modified.ctx")
    narr = load_narration(CORPUS / "woolam_modified.proto", ctx)
    _, patterns = analyze_narration(narr, ctx)
    pattern = data.draw(st.sampled_from(list(patterns)))
    identities = [a for a in GROUND_ATOMS if isinstance(a, Identity)]
    nonces = [a for a in GROUND_ATOMS if isinstance(a, Nonce)]
    grounding = {}
    for a in sorted(atoms_of(pattern), key=format_message):
        pool = identities if isinstance(a, Identity) else nonces if isinstance(a, Nonce) else list(KEYS)
        grounding[a] = data.draw(st.sampled_from(pool))
    # variables fill exactly one component slot, so they take atoms or
    # encryptions; a concatenation would change the arity of the slot
    component = st.one_of(
        st.sampled_from(GROUND_ATOMS),
        st.tuples(st.sampled_from(GROUND_ATOMS), st.sampled_from(KEYS)).map(
            lambda t: Enc(t[0], t[1])
        ),
    )
    for v in sorted(vars_of(pattern), key=format_message):
        grounding[v] = data.draw(component)
    instance = apply(grounding, pattern)
    sigma = unify(pattern, instance)
    assert sigma is not None
    assert apply(sigma, pattern) == instance
    CASES["unify"] += 1


@given(m1=open_messages, m2=open_messages,
       sub=st.dictionaries(st.sampled_from(VARS), open_messages, max_size=3))
@settings(max_examples=150)
def law_unify_matches_reference(m1, m2, sub):
    # the lazily bound unifier equals the eagerly rewritten one, also when a
    # variable binds a concatenation that re-flattens the terms around it
    instance = apply(sub, m1)
    renamed = rename_apart(m1, 1)
    for left, right in ((m1, m2), (m2, m1), (m1, instance), (instance, m1), (renamed, m2)):
        assert unify(left, right) == reference_unify(left, right)
        CASES["unify"] += 1


UNIFY_SUITE = [
    law_unify_matches_reference,
    law_unify_sound_and_idempotent,
    law_unify_general_on_ground_instances,
    law_unify_general_on_corpus_patterns,
    law_unify_occurs_check,
    law_substitution_idempotent,
    law_equal_terms_hash_equal,
]


# ---------------------------------------------------------------------------
# Suite: bound ordering on whole protocols

def _key_name(x, y):
    lo, hi = sorted([x, y])
    return f"k{lo.lower()}{hi.lower()}"


@st.composite
def protocol_cases(draw):
    """A random well-formed (context, narration) pair."""
    participants = draw(
        st.lists(st.sampled_from(["A", "B", "C", "D"]), min_size=2, max_size=3, unique=True)
    )
    pairs = list(itertools.combinations(sorted(participants), 2))
    keyed = [p for p in pairs if draw(st.booleans())] or [pairs[0]]
    lines = ["principals " + ", ".join(participants + ["S", "I"])]
    for x, y in keyed:
        lines.append(f"key {_key_name(x, y)} shared({x},{y})")
    for p in participants:
        pool = participants + ["S"]
        members = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        level = draw(st.sampled_from(["public", "{" + ",".join(sorted(members)) + "}"]))
        lines.append(f"nonce N{p.lower()} fresh({p}) level {level}")
    ctx = parse_context("\n".join(lines) + "\n")

    owned_keys = {p: [k for k in keyed if p in k] for p in participants}
    accessible = {p: [] for p in participants}

    def collect_accessible(receiver, payload):
        out = []

        def walk(t):
            out.append(t)
            if isinstance(t, Enc):
                if isinstance(t.key, SymKey) and ctx.knows_key(receiver, t.key):
                    walk(t.body)
            elif isinstance(t, Concat):
                for p in t.parts:
                    walk(p)

        walk(payload)
        return out

    def payload_for(sender, depth):
        choices = ["identity", "nonce"]
        if accessible[sender]:
            choices.append("echo")
        if depth > 0:
            choices.append("concat")
            if owned_keys[sender]:
                choices.append("enc")
        kind = draw(st.sampled_from(choices))
        if kind == "identity":
            return Identity(draw(st.sampled_from(participants)))
        if kind == "nonce":
            return Nonce(f"N{sender.lower()}")
        if kind == "echo":
            return draw(st.sampled_from(accessible[sender]))
        if kind == "concat":
            n = draw(st.integers(2, 3))
            return concat([payload_for(sender, depth - 1) for _ in range(n)])
        key = draw(st.sampled_from(owned_keys[sender]))
        return Enc(payload_for(sender, depth - 1), SymKey(_key_name(*key)))

    n_steps = draw(st.integers(2, 4))
    steps = ["protocol Rnd"]
    for i in range(1, n_steps + 1):
        sender = draw(st.sampled_from(participants))
        receiver = draw(st.sampled_from([p for p in participants if p != sender]))
        payload = payload_for(sender, 2)
        steps.append(f"{i}. {sender} -> {receiver} : {format_message(payload)}")
        accessible[receiver] = accessible[receiver] + collect_accessible(receiver, payload)
    narr = parse_narration("\n".join(steps) + "\n", ctx)
    return ctx, narr


def _send_targets(roles):
    for role in roles:
        if role.steps and role.final.direction is Direction.SEND:
            r_plus = role.final.payload
            for target in ordered_atoms(r_plus) + ordered_vars(r_plus):
                yield role, r_plus, target


@given(case=protocol_cases())
@settings(max_examples=140)
def law_upper_bound_dominates_lower(case):
    ctx, narr = case
    roles, patterns = analyze_narration(narr, ctx)
    by_owner = {}
    for role in roles:
        by_owner.setdefault(role.owner, []).append(role)
    for group in by_owner.values():
        for shorter, longer in zip(group, group[1:]):
            assert longer.steps[: len(shorter.steps)] == shorter.steps
    for role, r_plus, target in _send_targets(roles):
        assert bound_ordering_check(Variant.MAX, target, r_plus, patterns, ctx)
        CASES["bounds"] += 1


def corpus_bound_dominance():
    for stem in ("woolam_modified", "woolam_original"):
        ctx = load_context(CORPUS / f"{stem}.ctx")
        narr = load_narration(CORPUS / f"{stem}.proto", ctx)
        roles, patterns = analyze_narration(narr, ctx)
        for role, r_plus, target in _send_targets(roles):
            assert bound_ordering_check(Variant.MAX, target, r_plus, patterns, ctx)
            CASES["bounds"] += 1


@given(case=protocol_cases())
@settings(max_examples=40)
def law_pinning_a_pattern_variable_never_raises_the_lower_bound(case):
    ctx, narr = case
    roles, patterns = analyze_narration(narr, ctx)
    pin = Identity("I")  # the universe always includes the intruder
    evaluation = Evaluation(Variant.MAX, ctx)
    for role, r_plus, target in _send_targets(roles):
        if not isinstance(r_plus, Enc):
            continue
        base = lower_bound(evaluation, target, r_plus, candidate_sources(r_plus, patterns))[0]
        for idx, pattern in enumerate(patterns):
            pattern_vars = sorted(vars_of(pattern), key=format_message)
            if not pattern_vars:
                continue
            pinned = apply({pattern_vars[0]: pin}, pattern)
            sigma = unify(pinned, r_plus)
            if sigma is None:
                continue
            if isinstance(target, Variable) and target in sigma \
                    and not isinstance(sigma[target], Variable):
                continue
            replaced = tuple(pinned if i == idx else p for i, p in enumerate(patterns))
            tightened = lower_bound(
                evaluation, target, r_plus, candidate_sources(r_plus, replaced)
            )[0]
            assert ctx.lattice.leq(tightened, base)
            CASES["bounds"] += 1


@given(case=protocol_cases())
@settings(max_examples=40)
def law_a_rename_index_marks_renamed_pattern_leaves_only(case):
    ctx, narr = case
    assert_only_pattern_leaves_are_renamed(*analyze_narration(narr, ctx))
    CASES["bounds"] += 1


BOUNDS_SUITE = [
    law_upper_bound_dominates_lower,
    corpus_bound_dominance,
    law_pinning_a_pattern_variable_never_raises_the_lower_bound,
    law_a_rename_index_marks_renamed_pattern_leaves_only,
]


# ---------------------------------------------------------------------------
# Suite: full invariance under the intruder closure

closure_knowledge = st.lists(
    _msgs(st.sampled_from(GROUND_ATOMS), max_leaves=2), min_size=1, max_size=4
)


def _entitled(alpha, initial_atoms, ctx):
    alpha_level = ctx.level_of(alpha)
    return any(ctx.lattice.leq(alpha_level, ctx.level_of(t)) for t in initial_atoms)


@given(msgs=closure_knowledge)
@settings(max_examples=25)
def law_evaluation_is_full_invariant_under_deduction(msgs):
    ctx = PROP_CTX
    initial_atoms = [t for t in saturate(msgs, 0, ctx) if isinstance(t, Atom)]
    closure = sorted(saturate(msgs, 2, ctx), key=format_message)
    if len(closure) > 1500:
        closure = closure[:: len(closure) // 1500 + 1]
    targets = {a for m in msgs for a in atoms_of(m) if not isinstance(a, Identity)}
    for alpha in sorted(targets, key=format_message):
        if _entitled(alpha, initial_atoms, ctx):
            continue
        base = ctx.lattice.meet_all(f_prime(Variant.MAX, alpha, m, ctx) for m in msgs)
        for m in closure:
            assert ctx.lattice.leq(base, f_prime(Variant.MAX, alpha, m, ctx)), (
                f"level of {format_message(alpha)} drops in {format_message(m)}"
            )
            CASES["invariance"] += 1


INVARIANCE_SUITE = [law_evaluation_is_full_invariant_under_deduction]


# ---------------------------------------------------------------------------
# Suite: deduction oracle sanity (not part of the 500-case criterion)

@given(m1=st.lists(ground_messages, max_size=3), m2=st.lists(ground_messages, max_size=2))
@settings(max_examples=40)
def law_saturation_monotone(m1, m2):
    assert saturate(m1, 1, PROP_CTX) <= saturate(m1 + m2, 1, PROP_CTX)
    CASES["deduction"] += 1


@given(msgs=st.lists(ground_messages, max_size=3))
@settings(max_examples=40)
def law_saturation_closed_under_analysis(msgs):
    once = saturate(msgs, 1, PROP_CTX)
    assert saturate(once, 0, PROP_CTX) == once
    CASES["deduction"] += 1
    for t in once:
        if isinstance(t, Concat):
            assert all(p in once for p in t.parts)
        elif isinstance(t, Enc) and t.key in once:
            assert t.body in once


DEDUCTION_SUITE = [law_saturation_monotone, law_saturation_closed_under_analysis]


# ---------------------------------------------------------------------------
# Suite: verdict-level soundness against the intruder closure

INTRUDER = "I"


@given(case=protocol_cases())
@settings(max_examples=60)
def law_secrecy_pass_leaks_nothing_to_the_intruder(case):
    # a protocol accepted for secrecy under some variant must not let the
    # intruder, who sees one honest run and knows every atom it is entitled
    # to, derive an atom whose declared level excludes it
    ctx, narr = case
    roles, patterns = analyze_narration(narr, ctx)
    if not any(all(c.passed for c in check_secrecy(roles, patterns, ctx, v)) for v in Variant):
        return
    declared = [ctx.resolve_atom(name) for name in ctx.decls]
    entitled = [a for a in declared if INTRUDER in ctx.lattice.canon(ctx.level_of(a))]
    view = [step.payload for step in narr.steps] + list(intruder_knowledge(ctx)) + entitled
    leaked = sorted(
        format_message(t) for t in saturate(view, 2, ctx)
        if isinstance(t, Atom) and INTRUDER not in ctx.lattice.canon(ctx.level_of(t))
    )
    assert not leaked, f"{leaked} leak from: " + "; ".join(str(step) for step in narr.steps)
    CASES["soundness"] += 1


SOUNDNESS_SUITE = [law_secrecy_pass_leaks_nothing_to_the_intruder]


#: suite name -> (properties, minimum number of checked cases)
ALL_SUITES = {
    "lattice": (LATTICE_SUITE, 500),
    "derivation": (DERIVATION_SUITE, 500),
    "wellformed": (WELLFORMED_SUITE, 500),
    "unify": (UNIFY_SUITE, 500),
    "bounds": (BOUNDS_SUITE, 500),
    "invariance": (INVARIANCE_SUITE, 500),
    "deduction": (DEDUCTION_SUITE, 60),
    "soundness": (SOUNDNESS_SUITE, 20),
}


def run_suite(name):
    """Run one suite and return the number of cases it checked."""
    props, _ = ALL_SUITES[name]
    before = CASES[name]
    for prop in props:
        prop()
    return CASES[name] - before


# The six randomized suites run once, in test_acceptance's criterion 5,
# which gates their case counts and their total time.
@pytest.mark.parametrize("name", ["deduction", "soundness"])
def test_property_suite(name):
    checked = run_suite(name)
    assert checked >= ALL_SUITES[name][1], f"suite {name} covered only {checked} cases"
