"""Candidate sources, the two bounds, and the secrecy/authentication decisions."""

from collections import Counter

import pytest
from hypothesis import given, settings

from wfcheck import (
    BOTTOM,
    AtomAbsent,
    CandidateSource,
    ChallengeAtomAbsent,
    ChallengeNotReceived,
    Concat,
    Enc,
    Evaluation,
    Identity,
    NoSource,
    Nonce,
    SecurityLevel,
    SymKey,
    TOP,
    Variable,
    analyze,
    analyze_narration,
    apply,
    candidate_sources,
    challenge_check,
    check_secrecy,
    check_step,
    concat,
    encryption_patterns,
    format_message,
    format_substitution,
    lower_bound,
    parse_context,
    parse_narration,
    rename_apart,
    variable_levels,
)
from wfcheck.context import AuthChallenge
from wfcheck.protocol import Direction
from wfcheck.safefun import Variant
from wfcheck.terms import (
    Atom,
    canonical_form,
    leaves,
    map_leaves,
    unify,
)
from wfcheck.witness import shape_of, sources_for_target

from bounds import bound_ordering_check, received_bound
from conftest import CORPUS, CORPUS_STEMS, perfbench_gen
from levels import (
    most_general,
    plain_universe,
    plain_variable_levels,
    receive_encryptions,
    sent_variables,
)
from messages import generated_messages, ordered_atoms, ordered_vars, reference_patterns
from test_properties import protocol_cases
from unification import associative_unifiers, reference_unify

A, B, S = Identity("A"), Identity("B"), Identity("S")
KAS, KBS = SymKey("kas"), SymKey("kbs")
KAB_I = SymKey("kab", session="i")
NB_I = Nonce("Nb", session="i")
U, V, Y = Variable("U"), Variable("V"), Variable("Y")
ABS = SecurityLevel.of("A", "B", "S")


@pytest.fixture(scope="module")
def mod(woolam_mod):
    narr, ctx = woolam_mod
    roles, patterns = analyze_narration(narr, ctx)
    return ctx, roles, patterns


@pytest.fixture(scope="module")
def orig(woolam_orig):
    narr, ctx = woolam_orig
    roles, patterns = analyze_narration(narr, ctx)
    return ctx, roles, patterns


# -- candidate sources -------------------------------------------------------

def test_session_key_send_has_exactly_one_source(mod):
    ctx, roles, patterns = mod
    r_plus = roles[1].final.payload  # {B.kab^i}kas
    sources = candidate_sources(r_plus, patterns)
    assert len(sources) == 1
    src = sources[0]
    assert apply(src.mgu, src.pattern) == r_plus
    # the unifier maps the renamed parameters to the concrete atoms
    images = set(src.mgu.values())
    assert images == {B, KAB_I, KAS}


def test_server_send_has_two_sources(mod):
    ctx, roles, patterns = mod
    r_plus = roles[5].final.payload  # {U.{A.V}kbs}kbs
    sources = candidate_sources(r_plus, patterns)
    assert [list(patterns).index(s.pattern) for s in sources] == [2, 4]
    for src in sources:
        assert apply(src.mgu, src.pattern) == apply(src.mgu, r_plus)


def test_unrelated_encryption_has_no_source(mod):
    ctx, roles, patterns = mod
    stranger = Enc(A, SymKey("kxy"))
    assert candidate_sources(stranger, patterns) == []
    with pytest.raises(NoSource):
        lower_bound(Evaluation(Variant.MAX, ctx), A, stranger, [])


def _sources_of_every_send(roles, patterns) -> int:
    """Check every candidate source of every encrypted send; return how many.

    A source's instance is its pattern under the unifier, and it is the sent
    message itself exactly when the unifier binds no leaf of the send. Its
    description starts with its printed pattern.
    """
    count = 0
    for role in roles:
        r_plus = role.final.payload
        if role.final.direction is not Direction.SEND or not isinstance(r_plus, Enc):
            continue
        send_leaves = set(leaves(r_plus))
        for source in candidate_sources(r_plus, patterns):
            assert source.instance == apply(source.mgu, source.pattern) == apply(source.mgu, r_plus)
            assert (source.instance is r_plus) == send_leaves.isdisjoint(source.mgu)
            assert source.description.startswith(format_message(source.pattern) + " via ")
            count += 1
    return count


def _roles_and_patterns(case):
    ctx = parse_context(case.context)
    return analyze_narration(parse_narration(case.protocol, ctx), ctx)


def test_every_source_instance_is_its_pattern_under_the_unifier(mod, orig):
    for _, roles, patterns in (mod, orig):
        assert _sources_of_every_send(roles, patterns) > 0
    chain = _roles_and_patterns(perfbench_gen().synth_chain(0, 16, sound=True))
    assert _sources_of_every_send(*chain) > 100


@given(case=protocol_cases())
@settings(max_examples=20)
def test_every_source_instance_holds_on_random_protocols(case):
    ctx, narr = case
    _sources_of_every_send(*analyze_narration(narr, ctx))


def test_a_source_binding_a_send_variable_instantiates_its_pattern():
    roles, patterns = _roles_and_patterns(perfbench_gen().synth_chain(1, 8, sound=False))
    r_plus = next(r for r in roles if r.label == "S.1").final.payload
    assert format_message(r_plus) == "{A4.?Y}ka1s"
    source = next(
        s for s in candidate_sources(r_plus, patterns)
        if format_message(s.pattern) == "{A1_11.{?W_11}ka1s_11}ka2s_11"
    )
    assert format_message(source.mgu[Variable("Y")]) == "{?W_11}ka1s_11"
    assert source.instance is not r_plus
    assert format_message(source.instance) == "{A4.{?W_11}ka1s_11}ka1s"
    # a source binding only pattern leaves shares the send itself
    assert any(s.instance is r_plus for s in candidate_sources(r_plus, patterns))


def test_a_parameter_of_the_send_bound_by_the_unifier_is_not_the_send():
    # the pattern repeats one parameter where the renamed send has two, so
    # the unifier binds the send's parameter B_2 (no variable is bound)
    r_plus = rename_apart(Enc(concat([A, B]), KAS), 2)
    pattern = rename_apart(Enc(concat([A, A]), KAS), 1)
    (source,) = candidate_sources(r_plus, [pattern])
    assert Identity("B", 2) in source.mgu
    assert source.instance is not r_plus
    assert source.instance == apply(source.mgu, pattern) == apply(source.mgu, r_plus)
    assert format_message(source.instance) == "{A_2.A_2}kas_2"


def _direct_sources(r_plus, patterns) -> list[CandidateSource]:
    """The scan without a shape: every pattern unified with the send itself."""
    send_leaves = set(leaves(r_plus))
    out = []
    for pattern in patterns:
        sigma = unify(pattern, r_plus)
        if sigma is not None:
            instance = r_plus if send_leaves.isdisjoint(sigma) else apply(sigma, pattern)
            description = f"{format_message(pattern)} via {format_substitution(sigma)}"
            out.append(CandidateSource(pattern, sigma, instance, description))
    return out


def _assert_same_sources(got, want, r_plus):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.pattern is w.pattern
        assert g.mgu == w.mgu
        assert (g.instance is r_plus) == (w.instance is r_plus)
        assert g.instance == w.instance
        assert g.description == w.description


def _scans_through_one_memo(roles, patterns) -> tuple[int, int]:
    """Scan every encrypted send through one shared memo, as an analysis does,
    and check each scan against a fresh one and against the direct scan;
    return how many sends and how many shapes."""
    scans: dict = {}
    sends = 0
    for role in roles:
        r_plus = role.final.payload
        if role.final.direction is not Direction.SEND or not isinstance(r_plus, Enc):
            continue
        shared = candidate_sources(r_plus, patterns, scans)
        _assert_same_sources(shared, candidate_sources(r_plus, patterns), r_plus)
        _assert_same_sources(shared, _direct_sources(r_plus, patterns), r_plus)
        sends += 1
    return sends, len(scans)


def test_a_shared_scan_memo_changes_no_source(mod, orig):
    for _, roles, patterns in (mod, orig):
        assert _scans_through_one_memo(roles, patterns)[0] > 0
    chain = _roles_and_patterns(perfbench_gen().synth_chain(0, 32, sound=True))
    assert _scans_through_one_memo(*chain) == (35, 3)


@given(case=protocol_cases())
@settings(max_examples=30)
def test_a_shared_scan_memo_changes_no_source_on_random_protocols(case):
    ctx, narr = case
    _scans_through_one_memo(*analyze_narration(narr, ctx))


def test_a_shared_scan_memo_changes_no_source_on_the_corpus_and_a_random_batch():
    # every corpus protocol, and 300 random protocols, few of whose sends
    # repeat a shape: each send maps the unifiers back by position
    sends = sum(
        _scans_through_one_memo(*analyze_narration(narr, ctx))[0]
        for ctx, narr in (_parsed(*_corpus_texts(stem)) for stem in CORPUS_STEMS)
    )
    assert sends > 0
    batch = perfbench_gen().random_batch(7, 300)
    counts = [_scans_through_one_memo(*_roles_and_patterns(case)) for case in batch]
    assert sum(sends for sends, _ in counts) > sum(shapes for _, shapes in counts) > 0


def test_received_bounds_match_the_plain_rule():
    # the analysis meets each receive into a running bound per prefix; the
    # plain rule meets every receive of the role afresh, on an evaluation
    # of its own
    texts = [_corpus_texts(stem) for stem in CORPUS_STEMS]
    cases = perfbench_gen().synth_chain_cases(1, 32, 16) + perfbench_gen().random_batch(1, 600)
    texts += [(case.context, case.protocol) for case in cases]
    checked = below_top = 0
    for ctx, narration in (_parsed(*pair) for pair in texts):
        roles, patterns = analyze_narration(narration, ctx)
        sends = [role for role in roles if role.final.direction is Direction.SEND]
        for variant in Variant:
            checks = iter(check_secrecy(roles, patterns, ctx, variant))
            plain = Evaluation(variant, ctx)
            for role in sends:
                targets = plain.walk(role.final.payload)
                for target in sorted(targets, key=lambda t: isinstance(t, Variable)):
                    check = next(checks)
                    assert (check.role, check.target) == (role.label, format_message(target))
                    assert check.received_bound == received_bound(plain, target, role), (
                        narration.name, variant, role.label, check.target
                    )
                    checked += 1
                    below_top += check.received_bound != TOP
            assert next(checks, None) is None
    assert checked > below_top > 0


def _parsed(context_text, protocol_text):
    ctx = parse_context(context_text)
    return ctx, parse_narration(protocol_text, ctx)


def _placed_row(scans):
    """The one memo row of a one-pattern scan that a second send of the shape
    placed: (pattern, bindings, mixed values, whether the instance is the
    send, head, description order)."""
    ((_, _, (rows, _)),) = scans.values()
    (row,) = rows
    return row


def _twin(r_plus):
    """A send of the same shape with other leaves but its parameters."""
    swap = {A: S, Y: U, KAS: KBS, KBS: KAS}
    return map_leaves(r_plus, lambda t: swap.get(t, t))


def _both_scans(r_plus, patterns):
    """The sources of a send, scanned first, then of its twin through the
    same memo, each checked against the direct scan; with the memo."""
    scans: dict = {}
    twin = _twin(r_plus)
    assert twin != r_plus
    found = []
    for send in (r_plus, twin):
        found.append(candidate_sources(send, patterns, scans))
        _assert_same_sources(found[-1], _direct_sources(send, patterns), send)
    assert len(scans) == 1
    return found, scans


def test_each_fallback_of_the_positional_scan_matches_the_direct_scan():
    nonce, key = Nonce("N", copy=1), SymKey("kas", copy=1)
    w = Variable("W", copy=1)
    # a unifier that binds a send parameter: the instance is not the send,
    # and the send's B_2 is a key, so the description is fully sorted
    bound = (Enc(concat([A, Identity("B", 2)]), KAS), rename_apart(Enc(concat([A, A]), KAS), 1))
    # ?W_1 takes {?Y}kas, where ?Y takes {N_1}kas_1: a value mixing send
    # and pattern leaves, rebuilt leaf by leaf
    mixed = (
        Enc(concat([Enc(Y, KAS), Y]), KBS),
        Enc(concat([w, Enc(nonce, key)]), SymKey("kbs", copy=1)),
    )
    # a send variable as a key: the description is fully sorted
    keyed = (Enc(concat([A, Y]), KAS), Enc(concat([Identity("A", 1), Enc(nonce, KBS)]), key))
    paths = []
    for r_plus, pattern in (bound, mixed, keyed):
        (first, second), scans = _both_scans(r_plus, [pattern])
        _, _, values, is_send, _, order = _placed_row(scans)
        assert not is_send and first[0].instance is not r_plus
        assert order is None
        paths.append(len(values))
    assert paths == [0, 1, 0]
    (_, (source,)), _ = _both_scans(*mixed[:1], [mixed[1]])
    assert format_message(source.mgu[w]) == "{{N_1}kas_1}kbs"
    assert source.description == (
        "{?W_1.{N_1}kas_1}kbs_1 via {?U -> {N_1}kas_1, ?W_1 -> {{N_1}kas_1}kbs, kbs_1 -> kas}"
    )
    # pattern keys with their own texts: the description order is fixed once
    (_, (source,)), scans = _both_scans(
        Enc(concat([A, NB_I]), KAS), [rename_apart(Enc(concat([A, Y]), KAS), 2)]
    )
    _, _, _, is_send, _, order = _placed_row(scans)
    assert is_send and [arrow for arrow, _ in order] == ["?Y_2 -> ", "A_2 -> ", "kas_2 -> "]
    assert source.description == "{A_2.?Y_2}kas_2 via {?Y_2 -> Nb^i, A_2 -> S, kas_2 -> kbs}"


def _reference_shape(term):
    """The term with each leaf but its parameters renamed, by first
    occurrence, to ``#0``, ``#1``, … of its own class."""
    names: dict = {}

    def renamed(leaf):
        if leaf.copy is not None:
            return leaf
        return type(leaf)(f"#{names.setdefault(leaf, len(names))}")

    return map_leaves(term, renamed)


def _subterms(term):
    """The subterms of ``term`` in preorder, body before key."""
    if isinstance(term, Concat):
        parts = term.parts
    else:
        parts = (term.body, term.key) if isinstance(term, Enc) else ()
    return [term] + [s for part in parts for s in _subterms(part)]


@given(case=protocol_cases())
@settings(max_examples=40)
def test_equal_shape_keys_are_equal_shapes(case):
    ctx, narr = case
    roles, patterns = analyze_narration(narr, ctx)
    # the subterms of every step of the roles, and the patterns
    terms = {s for role in roles for step in role.steps for s in _subterms(step.payload)}
    terms = [*terms, *patterns]
    keys, shapes = {}, {}
    for term in terms:
        key, subterms = shape_of(term)
        assert subterms == _subterms(term) and len(key) == len(subterms)
        keys[term], shapes[term] = key, _reference_shape(term)
    for left in terms:
        for right in terms:
            assert (keys[left] == keys[right]) == (shapes[left] == shapes[right])
            if keys[left] == keys[right]:
                # the renaming that maps one to the other maps each subterm
                # to the one at its position
                back = dict(zip(leaves(left), leaves(right)))
                assert [apply(back, t) for t in _subterms(left)] == _subterms(right)


@pytest.mark.parametrize("steps, sends", [(32, 35), (64, 67)])
def test_each_send_is_walked_once_and_each_shape_unified_once(steps, sends, monkeypatch):
    import wfcheck.witness as witness

    roles, patterns = _roles_and_patterns(perfbench_gen().synth_chain(0, steps, sound=True))
    walked, unified = [], []
    real_shape, real_unify = witness.shape_of, witness.unify
    monkeypatch.setattr(witness, "shape_of", lambda term: walked.append(term) or real_shape(term))
    monkeypatch.setattr(witness, "unify", lambda p, t: unified.append(t) or real_unify(p, t))
    scans: dict = {}
    for role in roles:
        if role.final.direction is Direction.SEND and isinstance(role.final.payload, Enc):
            candidate_sources(role.final.payload, patterns, scans)
    # three shapes: only the first send of each is unified, with every pattern
    assert (len(walked), len(scans)) == (sends, 3)
    assert len(unified) == 3 * len(patterns) and len(set(unified)) == 3


def test_a_send_keeps_its_parameters_in_its_shape(monkeypatch):
    import wfcheck.witness as witness

    # a parameter of the send may be a leaf of a pattern, so the shape keeps
    # it: a renamed pattern scanned against itself binds nothing, as the
    # direct scan does
    pattern = rename_apart(Enc(concat([A, A]), KAS), 1)
    (source,) = candidate_sources(pattern, [pattern])
    _assert_same_sources([source], _direct_sources(pattern, [pattern]), pattern)
    assert source.mgu == {} and source.instance is pattern
    assert source.description == "{A_1.A_1}kas_1 via {}"
    # the B_2 case: the pattern repeats one parameter where each send has
    # two leaves, so each unifier binds the send's parameter B_2; the first
    # two sends differ only in their other leaves, so they share one scan,
    # and the renamed-apart send, all parameters, is a shape of its own
    first = Enc(concat([A, Identity("B", 2)]), KAS)
    second = Enc(concat([S, Identity("B", 2)]), KBS)
    renamed = rename_apart(Enc(concat([A, B]), KAS), 2)
    calls = []
    real_unify = witness.unify
    monkeypatch.setattr(witness, "unify", lambda *terms: calls.append(terms) or real_unify(*terms))
    scans: dict = {}
    instances = []
    for r_plus in (first, second, renamed):
        (source,) = candidate_sources(r_plus, [pattern], scans)
        _assert_same_sources([source], _direct_sources(r_plus, [pattern]), r_plus)
        assert Identity("B", 2) in source.mgu and source.instance is not r_plus
        instances.append(format_message(source.instance))
    assert instances == ["{A.A}kas", "{S.S}kbs", "{A_2.A_2}kas_2"]
    assert len(scans) == len(calls) == 2


def test_sends_that_differ_in_a_session_tag_share_one_scan():
    tagged, untagged = Enc(concat([A, NB_I]), KAS), Enc(concat([A, Nonce("Nb")]), KAS)
    patterns = [rename_apart(tagged, 1), rename_apart(Enc(concat([A, Y]), KAS), 2)]
    scans: dict = {}
    descriptions = []
    for r_plus in (tagged, untagged):
        sources = candidate_sources(r_plus, patterns, scans)
        _assert_same_sources(sources, _direct_sources(r_plus, patterns), r_plus)
        assert all(source.instance is r_plus for source in sources)
        descriptions.append([source.description for source in sources])
    # a shape renames the tag with the name, and each send maps the
    # unifiers back to its own nonce
    assert len(scans) == 1
    assert descriptions == [
        ["{A_1.Nb_1^i}kas_1 via {A_1 -> A, Nb_1^i -> Nb^i, kas_1 -> kas}",
         "{A_2.?Y_2}kas_2 via {?Y_2 -> Nb^i, A_2 -> A, kas_2 -> kas}"],
        ["{A_1.Nb_1^i}kas_1 via {A_1 -> A, Nb_1^i -> Nb, kas_1 -> kas}",
         "{A_2.?Y_2}kas_2 via {?Y_2 -> Nb, A_2 -> A, kas_2 -> kas}"],
    ]


def test_a_unifier_whose_keys_print_alike_still_has_the_send_as_instance():
    # an identity and a key may share a name only outside a parsed context;
    # their renamed copies both print k_1, so the description sorts by value
    r_plus = Enc(concat([Identity("k"), SymKey("k")]), KAS)
    patterns = [rename_apart(r_plus, 1)]
    sources = candidate_sources(r_plus, patterns)
    _assert_same_sources(sources, _direct_sources(r_plus, patterns), r_plus)
    assert sources[0].instance is r_plus
    assert sources[0].description == "{k_1.k_1}kas_1 via {k_1 -> k, k_1 -> k, kas_1 -> kas}"


def test_unify_matches_the_reference_on_every_scanned_pair(woolam_mod, woolam_orig):
    # every (pattern, send) pair the send scans can try, also with its sides
    # swapped, and every (universe term, receive encryption) pair the level
    # scan can try, with the plain universe, a superset of the scan's; on
    # the corpus, a 32-step chain and 200 random protocols
    gen = perfbench_gen()
    scans = [analyze_narration(narr, ctx) for narr, ctx in (woolam_mod, woolam_orig)]
    cases = [gen.synth_chain(0, 32, sound=True)] + gen.random_batch(1, 200)
    scans += [_roles_and_patterns(case) for case in cases]
    pairs, compound, received = 0, 0, 0
    for roles, patterns in scans:
        tried = []
        for role in roles:
            r_plus = role.final.payload
            if role.final.direction is not Direction.SEND or not isinstance(r_plus, Enc):
                continue
            for pattern in patterns:
                tried += [(pattern, r_plus), (r_plus, pattern)]
        universe = plain_universe(roles)
        for enc in receive_encryptions(roles):
            tried += [(p, enc) for p in universe]
            received += len(universe)
        for left, right in tried:
            sigma = unify(left, right)
            assert sigma == reference_unify(left, right), (left, right)
            pairs += 1
            # some scanned pairs bind a variable to a compound term, so a
            # popped concatenation's bound parts are re-flattened here, not
            # only in test_terms' pins and the random-term law
            compound += sigma is not None and any(
                not isinstance(v, (Atom, Variable)) for v in sigma.values()
            )
    assert pairs > 2_000 and compound > 0 and received > 1_000


# -- the lower bound ---------------------------------------------------------

def test_a_send_past_the_tenth_role_variable_keeps_every_source():
    # the server's send {?X2}ka2s once named its eleventh-and-later variable
    # ?X_2, the rename index of pattern 2, and lost that pattern as a source
    case = perfbench_gen().synth_chain_cases(23, 32, 4)[1]
    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    r_plus = next(r for r in roles if r.label == "S.17").final.payload
    retagged = reference_patterns(
        rename_apart(m, tag) for tag, m in enumerate(generated_messages(roles), start=1000)
    )
    sources = candidate_sources(r_plus, patterns)
    assert len(sources) == 28
    assert [list(patterns).index(s.pattern) for s in sources] == [
        retagged.index(s.pattern) for s in candidate_sources(r_plus, retagged)
    ]


def test_lower_bound_of_the_session_key(mod):
    ctx, roles, patterns = mod
    r_plus = roles[1].final.payload
    sources = candidate_sources(r_plus, patterns)
    assert lower_bound(Evaluation(Variant.MAX, ctx), KAB_I, r_plus, sources)[0] == ABS


def test_lower_bounds_at_the_server(mod):
    ctx, roles, patterns = mod
    r_plus = roles[5].final.payload
    sources = candidate_sources(r_plus, patterns)
    assert lower_bound(Evaluation(Variant.MAX, ctx), U, r_plus, sources)[0] == ABS
    assert lower_bound(Evaluation(Variant.MAX, ctx), V, r_plus, sources)[0] == ABS


def test_lower_bound_of_unencrypted_send_is_direct(mod):
    ctx, roles, patterns = mod
    assert lower_bound(Evaluation(Variant.MAX, ctx), NB_I, NB_I, [])[0] == BOTTOM


def test_lower_bound_requires_an_occurrence(mod):
    ctx, roles, patterns = mod
    r_plus = roles[1].final.payload
    with pytest.raises(AtomAbsent):
        lower_bound(Evaluation(Variant.MAX, ctx), KBS, r_plus, candidate_sources(r_plus, patterns))


def test_variable_sources_exclude_pinning_unifiers(mod):
    # the pattern that pins the sent variable to a nonce parameter does not
    # carry it as an unknown: only the server's own pattern remains
    ctx, roles, patterns = mod
    sources = candidate_sources(roles[5].final.payload, patterns)
    assert [list(patterns).index(s.pattern) for s, _ in sources_for_target(U, sources)] == [4]
    assert [list(patterns).index(s.pattern) for s, _ in sources_for_target(V, sources)] == [2, 4]
    # unify binds the pattern side, so a carried variable stands for itself
    assert [t for _, t in sources_for_target(V, sources)] == [V, V]
    assert [t for _, t in sources_for_target(A, sources)] == [A, A]


def _corpus_texts(stem):
    return (CORPUS / f"{stem}.ctx").read_text(), (CORPUS / f"{stem}.proto").read_text()


def _missed_unifier_runs():
    """(context, narration, variant) of every corpus protocol under every
    variant, and of seeded benchmark cases."""
    texts = [_corpus_texts(stem) for stem in CORPUS_STEMS]
    runs = [(ctx, proto, variant) for ctx, proto in texts for variant in Variant]
    gen = perfbench_gen()
    for case in gen.synth_chain_cases(1, 16, 2) + gen.random_batch(7, 200):
        runs.append((case.context, case.protocol, Variant(case.variant)))
    for context_text, protocol_text, variant in runs:
        ctx = parse_context(context_text)
        yield ctx, parse_narration(protocol_text, ctx), variant


def test_sources_that_unify_misses_change_no_check():
    # unify matches concatenation parts one by one, so it misses a unifier
    # where a variable stands for several parts; adding such unifiers as
    # sources can only lower a lower bound, and a check that then fails
    # would be a PASS resting on a missed source
    extra_sources = 0
    for ctx, narration, variant in _missed_unifier_runs():
        roles, patterns = analyze_narration(narration, ctx)
        evaluation = Evaluation(variant, ctx)
        levels = variable_levels(roles, evaluation, patterns)
        for role in roles:
            r_plus = role.final.payload
            if role.final.direction is not Direction.SEND or not isinstance(r_plus, Enc):
                continue
            extra = [
                CandidateSource(pattern, sigma, apply(sigma, pattern), "")
                for pattern in patterns
                for sigma in associative_unifiers(pattern, r_plus)
            ]
            for source in extra:
                assert source.instance == apply(source.mgu, r_plus)
            extra_sources += len(extra)
            sources = candidate_sources(r_plus, patterns) + extra
            targets = ordered_atoms(r_plus) + ordered_vars(r_plus)
            checks = check_step(role, evaluation, patterns, levels)
            assert [c.target for c in checks] == [format_message(t) for t in targets]
            for target, check in zip(targets, checks):
                lower = lower_bound(evaluation, target, r_plus, sources)[0]
                required = ctx.lattice.meet(check.declared, check.received_bound)
                assert ctx.lattice.leq(required, lower) == check.passed, (
                    narration.name, variant, role.label, check.target
                )
    assert extra_sources > 0


# -- variable levels -----------------------------------------------------------

def _assert_plain_levels(roles, ctx, unifiers=most_general) -> int:
    """``variable_levels`` gives every sent variable the plain rule's level,
    with ``unifiers`` as the plain rule's; return how many are above bottom.

    It is asked twice on one evaluation, the second time reading every walk
    from the memo, so a scan that changed a shared walk would show here."""
    evaluation = Evaluation(Variant.MAX, ctx)
    plain = plain_variable_levels(roles, ctx, unifiers)
    assert set(plain) == sent_variables(roles)
    patterns = encryption_patterns(roles)
    for _ in range(2):
        got = variable_levels(roles, evaluation, patterns)
        assert {x: got.get(x, BOTTOM) for x in plain} == plain
    return sum(not level.is_bottom for level in plain.values())


def test_variable_levels_match_the_plain_rule():
    # the scan deduplicates its universe and scans each receive
    # shape once; the plain rule unifies every nested encryption, renamed
    # apart, with every receive encryption
    runs = _missed_unifier_runs()
    raised = sum(_assert_plain_levels(_roles(narr, ctx), ctx) for ctx, narr, _ in runs)
    assert raised > 40


@given(case=protocol_cases())
@settings(max_examples=40)
def test_variable_levels_match_the_plain_rule_on_random_protocols(case):
    ctx, narr = case
    _assert_plain_levels(_roles(narr, ctx), ctx)


def test_associative_unifiers_change_no_variable_level():
    # unify misses a unifier where a variable stands for several parts;
    # joining what such unifiers bind a variable to changes no level
    def with_associative(p, e):
        return most_general(p, e) + list(associative_unifiers(p, e))

    extra = 0
    for ctx, narr, _ in _missed_unifier_runs():
        roles = _roles(narr, ctx)
        _assert_plain_levels(roles, ctx, with_associative)
        universe = plain_universe(roles)
        extra += sum(
            len(list(associative_unifiers(p, e)))
            for e in receive_encryptions(roles) for p in universe
        )
    assert extra > 0


def _roles(narration, ctx):
    return analyze_narration(narration, ctx)[0]


def _levels_by_name(context_text, protocol_text):
    ctx = parse_context(context_text)
    roles, patterns = analyze_narration(parse_narration(protocol_text, ctx), ctx)
    levels = variable_levels(roles, Evaluation(Variant.MAX, ctx), patterns)
    return {format_message(v): level for v, level in levels.items()}, roles


def test_a_variable_takes_the_level_of_the_secret_it_can_stand_for():
    # A receives the replayed {?X}kab, which can hold Na: ?X is {A,B}, and A
    # sending it in the clear fails
    assert _levels_by_name(*_corpus_texts("reflect"))[0] == {"?X": SecurityLevel.of("A", "B")}
    # in modified Woo-Lam the server forwards ?V, which can be kab^i
    assert _levels_by_name(*_corpus_texts("woolam_modified"))[0]["?V"] == ABS
    # S's {?Y}kbs unifies with {Na}kab renamed, whose key is a parameter
    assert _levels_by_name(*_corpus_texts("fwd"))[0] == {
        "?X": SecurityLevel.of("A", "B"), "?Y": SecurityLevel.of("A", "B")
    }
    # a key in key position adds nothing: B forwards {A}kas, which it cannot
    # open, in the clear, and that exposes no secret; ?X can only be
    # {A}kas, whose only secret is a key, so it stays public
    ctx_text = "principals A, B, S, I\nkey kab shared(A,B)\nkey kas shared(A,S)\n"
    proto_text = "protocol Nested\n1. A -> B : {{A}kas}kab\n2. B -> S : {A}kas\n"
    levels, roles = _levels_by_name(ctx_text, proto_text)
    ctx = parse_context(ctx_text)
    assert levels == {"?X": BOTTOM} and _assert_plain_levels(roles, ctx) == 0
    assert {format_message(v) for v in sent_variables(roles)} == {"?X"}
    assert analyze(parse_narration(proto_text, ctx), ctx).secrecy_passed
    # a variable can stand for the receive's own atom: A's {Na.Na}kas fits
    # B's {?X.Nb^i}kab only with ?X as Nb^i, so ?X joins Nb's level {A,B}
    # with Na's {A,B,S}, which A's {Na.?Y}kab gives it
    ctx_text = (
        "principals A, B, S, I\nkey kab shared(A,B)\nkey kas shared(A,S)\n"
        "nonce Na fresh(A) level {A,B,S}\nnonce Nb fresh(B) level {A,B}\n"
    )
    proto_text = (
        "protocol Own\n1. B -> A : {Nb}kab\n2. A -> S : {Na.Na}kas\n"
        "3. A -> B : {Na.Nb}kab\n4. B -> A : Na\n"
    )
    levels, roles = _levels_by_name(ctx_text, proto_text)
    assert levels["?X"] == SecurityLevel.of("A", "B")
    _assert_plain_levels(roles, parse_context(ctx_text))
    # with Na public, {Na.Na}kas holds no secret of its own, yet its repeated
    # Na still binds ?X to Nb^i: dropping such a term from the universe
    # would leave ?X public and pass B sending Nb in the clear
    ctx_text = ctx_text.replace("level {A,B,S}", "level public")
    levels, roles = _levels_by_name(ctx_text, proto_text)
    ctx = parse_context(ctx_text)
    assert levels["?X"] == SecurityLevel.of("A", "B")
    _assert_plain_levels(roles, ctx)
    assert not analyze(parse_narration(proto_text, ctx), ctx).secrecy_passed


def test_every_variable_of_a_sound_chain_is_secret_to_the_server():
    # each variable received inside an encryption gets the join of every
    # client's nonce level; the two the Woo-Lam tail receives in the clear
    # get no level from the scan, so they stay public
    gen = perfbench_gen()
    for steps, clear in ((32, {"?T2", "?V3"}), (64, {"?R5", "?T4"})):
        case = gen.synth_chain(0, steps, sound=True)
        levels, roles = _levels_by_name(case.context, case.protocol)
        sent = {format_message(v) for v in sent_variables(roles)}
        assert {levels[x] for x in sent - clear} == {SecurityLevel.of("S")}
        assert clear <= sent and clear.isdisjoint(levels)


def test_one_unification_scan_per_send(mod, monkeypatch):
    import wfcheck.witness as witness

    ctx, roles, patterns = mod
    levels = variable_levels(roles, Evaluation(Variant.MAX, ctx), patterns)
    calls = []
    real_unify = witness.unify
    monkeypatch.setattr(witness, "unify", lambda *terms: calls.append(terms) or real_unify(*terms))
    checks = check_step(roles[5], Evaluation(Variant.MAX, ctx), patterns, levels)  # {U.{A.V}kbs}kbs
    assert len(checks) == 4
    assert len(calls) == len(patterns)


def _unify_calls(case, monkeypatch) -> tuple[int, dict]:
    """The unify calls of one secrecy check of ``case``, and the counts that
    fix them: send shapes × patterns + receive shapes × universe terms."""
    import wfcheck.witness as witness

    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    calls = []
    real_unify = witness.unify
    monkeypatch.setattr(witness, "unify", lambda *terms: calls.append(terms) or real_unify(*terms))
    check_secrecy(roles, patterns, ctx, Variant.MAX)
    monkeypatch.undo()
    sends = [
        role.final.payload for role in roles
        if role.final.direction is Direction.SEND and isinstance(role.final.payload, Enc)
    ]

    def renamed(m):  # each leaf renamed by first occurrence to a bare leaf of its class
        names: dict = {}
        return map_leaves(m, lambda t: type(t)(f"#{names.setdefault(t, len(names))}"))

    # the level scan: each receive shape once with the universe, its
    # terms deduplicated modulo renaming
    receives = receive_encryptions(roles)
    nested = plain_universe(roles)
    counts = dict(
        sends=len(sends), shapes=len({renamed(r_plus) for r_plus in sends}),
        patterns=len(patterns), receives=len(receives),
        receive_shapes=len({renamed(enc) for enc in receives}),
        nested=len(nested), universe=len({canonical_form(p) for p in nested}),
    )
    expected = counts["shapes"] * counts["patterns"]
    expected += counts["receive_shapes"] * counts["universe"]
    assert len(calls) == expected
    return len(calls), counts


def test_one_unification_per_send_shape_and_pattern(monkeypatch):
    calls, counts = _unify_calls(perfbench_gen().synth_chain(0, 64, sound=True), monkeypatch)
    assert calls == 258
    assert counts == dict(
        sends=67, shapes=3, patterns=43, receives=34, receive_shapes=3, nested=134, universe=43
    )


def test_one_unification_per_shape_and_universe_term_on_random_protocols(monkeypatch):
    # the universe keeps one term per renaming, which the chain above never
    # repeats; random protocols do
    counts = [_unify_calls(case, monkeypatch)[1] for case in perfbench_gen().random_batch(1, 200)]
    assert sum(c["receive_shapes"] for c in counts) > 0
    assert sum(c["universe"] for c in counts) < sum(c["nested"] for c in counts)


def test_each_distinct_message_is_walked_and_evaluated_once(monkeypatch):
    import wfcheck.safefun as safefun
    import wfcheck.witness as witness

    case = perfbench_gen().synth_chain(0, 64, sound=True)
    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    walks, walked, asked, computed = Counter(), [], set(), []
    real_entry, real_level, real_compute = Evaluation._entry, Evaluation.level, safefun._level
    real_walk = safefun.occurrences

    def entry(self, m):  # a miss is the analysis's walk of m
        if m not in self._memo:
            walks.update([m])
        return real_entry(self, m)

    monkeypatch.setattr(Evaluation, "_entry", entry)
    monkeypatch.setattr(safefun, "occurrences", lambda m: walked.append(m) or real_walk(m))
    monkeypatch.setattr(
        Evaluation, "level",
        lambda self, target, m: asked.add((m, target)) or real_level(self, target, m),
    )
    monkeypatch.setattr(
        safefun, "_level", lambda *args: computed.append(args[1]) or real_compute(*args)
    )
    checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert all(c.passed for c in checks) and len(checks) == 234
    received = {
        m for role in roles if role.final.direction is Direction.SEND
        for m in role.received
    }
    # the level scan has no walker of its own: every walk is an evaluation miss
    assert not hasattr(witness, "occurrences")
    assert Counter(walked) == walks
    # one walk per distinct message, one level per distinct (message, target):
    # a payload that several prefix roles receive is evaluated once; the
    # per-target walk walked a message for each of 7,681 evaluations here.
    # The level scan also walks payloads and bound values never evaluated.
    # The upper bounds evaluate only the leaves at body positions of the
    # receives, not every send target in every receive.
    assert max(walks.values()) == 1
    assert set(walks) >= {m for m, _ in asked}
    assert len(computed) == len(asked)
    assert received <= set(walks)
    assert (len(walks), len(computed)) == (261, 450)


def _formed_and_renamed(case, monkeypatch) -> tuple:
    """The roles and patterns of one analysis of ``case``, with the terms it
    puts in canonical form and the terms it renames apart, in call order."""
    import wfcheck.protocol as protocol
    import wfcheck.witness as witness

    formed, renamed = [], []
    real_form, real_rename = protocol.canonical_form, protocol.rename_apart
    monkeypatch.setattr(protocol, "canonical_form", lambda m: formed.append(m) or real_form(m))
    monkeypatch.setattr(
        protocol, "rename_apart", lambda m, tag: renamed.append(m) or real_rename(m, tag)
    )
    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    check_secrecy(roles, patterns, ctx, Variant(case.variant))
    monkeypatch.undo()
    # the level scan forms and renames nothing itself
    assert not hasattr(witness, "canonical_form") and not hasattr(witness, "rename_apart")
    return roles, patterns, formed, renamed


@pytest.mark.parametrize("steps, forms, renames", [(16, 38, 19), (32, 70, 27), (64, 134, 43)])
def test_each_distinct_encryption_is_formed_and_renamed_once(steps, forms, renames, monkeypatch):
    # the patterns form each distinct encrypted payload and rename one per
    # form; the level scan reuses them and forms only the other nested
    # encryptions (75/139/267 forms and 61/101/181 renames before)
    case = perfbench_gen().synth_chain(0, steps, sound=True)
    assert Variant(case.variant) is Variant.MAX
    _, _, formed, renamed = _formed_and_renamed(case, monkeypatch)
    assert (len(formed), len(renamed)) == (forms, renames)
    assert len(set(formed)) == len(formed)
    assert len({canonical_form(m) for m in renamed}) == len(renamed)


def test_a_protocol_with_no_received_variable_renames_only_its_patterns(monkeypatch):
    # the level scan's universe is built only when a variable needs a level
    lazy = spared = 0
    for case in perfbench_gen().random_batch(1, 200):
        roles, patterns, _, renamed = _formed_and_renamed(case, monkeypatch)
        if receive_encryptions(roles):
            continue
        lazy += 1
        assert len(renamed) == len(patterns)
        # an eager build would also rename the nested encryptions of forms no pattern has
        forms = {canonical_form(enc) for enc in plain_universe(roles)}
        spared += bool(forms - set(patterns.values()))
    assert lazy > 0 and spared > 0


# -- step checks and the secrecy decision -------------------------------------

def test_step_check_for_the_session_key_passes(mod):
    ctx, roles, patterns = mod
    levels = variable_levels(roles, Evaluation(Variant.MAX, ctx), patterns)
    checks = {c.target: c for c in check_step(roles[1], Evaluation(Variant.MAX, ctx), patterns, levels)}
    c = checks["kab^i"]
    assert c.received_bound == TOP
    assert c.declared == ABS
    assert c.lower_bound == ABS
    assert c.passed


def test_step_check_targets_every_atom_and_variable(mod):
    ctx, roles, patterns = mod
    levels = variable_levels(roles, Evaluation(Variant.MAX, ctx), patterns)
    checks = check_step(roles[3], Evaluation(Variant.MAX, ctx), patterns, levels)
    assert [c.target for c in checks] == ["A", "Nb^i", "kbs", "?Y"]
    assert all(c.passed for c in checks)


def test_public_nonce_passes_trivially(mod):
    ctx, roles, patterns = mod
    levels = variable_levels(roles, Evaluation(Variant.MAX, ctx), patterns)
    checks = {c.target: c for c in check_step(roles[2], Evaluation(Variant.MAX, ctx), patterns, levels)}
    c = checks["Nb^i"]
    assert c.declared == BOTTOM and c.passed


def test_secrecy_verdict_for_the_modified_protocol(mod):
    ctx, roles, patterns = mod
    checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert len(checks) == 13
    assert all(c.passed for c in checks)


def test_secrecy_of_a_public_broadcast_is_vacuous():
    ctx = parse_context("principals A, B, I\nnonce Na fresh(A) level public\n")
    narr = parse_narration("protocol Hello\n1. A -> B : A.Na\n", ctx)
    roles, patterns = analyze_narration(narr, ctx)
    checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert all(c.passed for c in checks)
    assert all(c.declared == BOTTOM for c in checks)


# -- authentication ----------------------------------------------------------

def test_modified_woolam_is_correct_for_authentication(mod):
    ctx, roles, patterns = mod
    secrecy_ok = all(c.passed for c in check_secrecy(roles, patterns, ctx, Variant.MAX))
    auth = challenge_check(roles, ctx, Variant.MAX, ctx.challenge)
    assert secrecy_ok and auth.passed
    assert auth.level == ABS
    assert auth.claimant_present and auth.above_bottom
    assert auth.message == "{Nb^i.{A.?Z}kbs}kbs"


def test_original_woolam_fails_authentication(orig):
    ctx, roles, patterns = orig
    secrecy_ok = all(c.passed for c in check_secrecy(roles, patterns, ctx, Variant.MAX))
    auth = challenge_check(roles, ctx, Variant.MAX, ctx.challenge)
    assert secrecy_ok  # the flaw is in the identity binding, not the bounds
    assert not (secrecy_ok and auth.passed)
    assert auth.level == SecurityLevel.of("B", "S")
    assert not auth.claimant_present
    assert auth.above_bottom


def test_public_challenge_fails_the_strictness_clause():
    # the verifier gets its own nonce echoed back in clear: recognizable,
    # but received in a public state
    ctx = parse_context(
        "principals A, B, I\n"
        "nonce Nb fresh(B) level public\n"
        "challenge auth verifier=B claimant=A step=2 challenge=Nb\n"
    )
    narr = parse_narration("protocol Echo\n1. B -> A : Nb\n2. A -> B : Nb\n", ctx)
    report = analyze(narr, ctx, Variant.MAX, "auth")
    auth = report.auth
    assert not report.overall_passed
    assert auth.level == BOTTOM
    assert auth.claimant_present      # bottom authorizes everybody
    assert not auth.above_bottom      # which is exactly why it fails


def test_challenge_on_a_send_step_is_rejected(mod):
    ctx, roles, patterns = mod
    bad = AuthChallenge(verifier="B", claimant="A", step=4, challenge="Nb")
    with pytest.raises(ChallengeNotReceived):
        challenge_check(roles, ctx, Variant.MAX, bad)


def test_challenge_of_a_verifier_without_a_role_is_rejected(mod):
    ctx, roles, patterns = mod
    bad = AuthChallenge(verifier="I", claimant="A", step=3, challenge="Nb")
    with pytest.raises(ChallengeNotReceived, match="^verifier I plays no role in the protocol$"):
        challenge_check(roles, ctx, Variant.MAX, bad)


def test_challenge_atom_must_occur(mod):
    ctx, roles, patterns = mod
    bad = AuthChallenge(verifier="B", claimant="A", step=3, challenge="Nb")
    with pytest.raises(ChallengeAtomAbsent):
        challenge_check(roles, ctx, Variant.MAX, bad)


# -- bound ordering ----------------------------------------------------------

def test_bound_ordering_on_the_session_key(mod):
    ctx, roles, patterns = mod
    r_plus = roles[1].final.payload
    assert bound_ordering_check(Variant.MAX, KAB_I, r_plus, patterns, ctx)


def test_bound_ordering_at_the_server(mod):
    ctx, roles, patterns = mod
    r_plus = roles[5].final.payload
    for target in (A, U, V):
        assert bound_ordering_check(Variant.MAX, target, r_plus, patterns, ctx)


def test_unrelated_pattern_leaves_bounds_unchanged(mod):
    ctx, roles, patterns = mod
    # a four-part body matches no send of the protocol positionally
    extra = Enc(
        concat([Identity("S", copy=99), Identity("A", copy=99),
                Identity("B", copy=99), Variable("W", copy=99)]),
        SymKey("kxx", copy=99),
    )
    padded = [*patterns, extra]
    for role in roles:
        if role.final.direction.value != "send":
            continue
        r_plus = role.final.payload
        for target in ordered_atoms(r_plus) + ordered_vars(r_plus):
            assert lower_bound(Evaluation(Variant.MAX, ctx), target, r_plus,
                               candidate_sources(r_plus, patterns))[0] == \
                lower_bound(Evaluation(Variant.MAX, ctx), target, r_plus,
                            candidate_sources(r_plus, padded))[0]
