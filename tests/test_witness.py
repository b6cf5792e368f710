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
    generated_messages,
    lower_bound,
    parse_context,
    parse_narration,
    rename_apart,
)
from wfcheck.context import AuthChallenge
from wfcheck.protocol import Direction
from wfcheck.safefun import Variant
from wfcheck.terms import Atom, leaves, ordered_atoms, ordered_vars, unify
from wfcheck.witness import sources_for_target

from bounds import bound_ordering_check
from conftest import CORPUS, perfbench_gen
from test_properties import protocol_cases
from test_report_cli import INSECURE, REFLECT_CTX, REFLECT_PROTO
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
    assert [patterns.index(s.pattern) for s in sources] == [2, 4]
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


def test_unify_matches_the_reference_on_every_scanned_pair(woolam_mod, woolam_orig):
    # every (pattern, send) pair the scans try, each also with its sides
    # swapped, on the corpus, a 32-step chain and 200 random protocols
    gen = perfbench_gen()
    scans = [analyze_narration(narr, ctx) for narr, ctx in (woolam_mod, woolam_orig)]
    cases = [gen.synth_chain(0, 32, sound=True)] + gen.random_batch(1, 200)
    scans += [_roles_and_patterns(case) for case in cases]
    pairs, compound = 0, 0
    for roles, patterns in scans:
        for role in roles:
            r_plus = role.final.payload
            if role.final.direction is not Direction.SEND or not isinstance(r_plus, Enc):
                continue
            for pattern in patterns:
                for left, right in ((pattern, r_plus), (r_plus, pattern)):
                    sigma = unify(left, right)
                    assert sigma == reference_unify(left, right), (left, right)
                    pairs += 1
                    # a variable bound to a compound term switches the call to
                    # re-flattening; no scanned pair needs it to get its answer,
                    # test_terms' pins and the random-term law cover that
                    compound += sigma is not None and any(
                        not isinstance(v, (Atom, Variable)) for v in sigma.values()
                    )
    assert pairs > 2_000 and compound > 0


# -- the lower bound ---------------------------------------------------------

def test_a_send_past_the_tenth_role_variable_keeps_every_source():
    # the server's send {?X2}ka2s once named its eleventh-and-later variable
    # ?X_2, the rename index of pattern 2, and lost that pattern as a source
    case = perfbench_gen().synth_chain_cases(23, 32, 4)[1]
    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    r_plus = next(r for r in roles if r.label == "S.17").final.payload
    retagged = encryption_patterns(
        rename_apart(m, tag) for tag, m in enumerate(generated_messages(roles), start=1000)
    )
    sources = candidate_sources(r_plus, patterns)
    assert len(sources) == 28
    assert [patterns.index(s.pattern) for s in sources] == [
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
    assert [patterns.index(s.pattern) for s, _ in sources_for_target(U, sources)] == [4]
    assert [patterns.index(s.pattern) for s, _ in sources_for_target(V, sources)] == [2, 4]
    # unify binds the pattern side, so a carried variable stands for itself
    assert [t for _, t in sources_for_target(V, sources)] == [V, V]
    assert [t for _, t in sources_for_target(A, sources)] == [A, A]


def _missed_unifier_runs():
    """(context, narration, variant) of the corpus and of the insecure
    protocols of ``test_report_cli`` under every variant, and of seeded
    benchmark cases."""
    texts = [
        ((CORPUS / f"{stem}.ctx").read_text(), (CORPUS / f"{stem}.proto").read_text())
        for stem in ("woolam_modified", "woolam_original")
    ]
    texts += [(REFLECT_CTX, REFLECT_PROTO)]
    texts += [(ctx, f"protocol {name}\n{steps}") for name, (steps, ctx) in INSECURE.items()]
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
            checks = check_step(role, evaluation, patterns)
            assert [c.target for c in checks] == [format_message(t) for t in targets]
            for target, check in zip(targets, checks):
                lower = lower_bound(evaluation, target, r_plus, sources)[0]
                required = ctx.lattice.meet(check.declared, check.received_bound)
                assert ctx.lattice.leq(required, lower) == check.passed, (
                    narration.name, variant, role.label, check.target
                )
    assert extra_sources > 0


def test_one_unification_scan_per_send(mod, monkeypatch):
    import wfcheck.witness as witness

    ctx, roles, patterns = mod
    calls = []
    real_unify = witness.unify
    monkeypatch.setattr(witness, "unify", lambda *terms: calls.append(terms) or real_unify(*terms))
    checks = check_step(roles[5], Evaluation(Variant.MAX, ctx), patterns)  # {U.{A.V}kbs}kbs
    assert len(checks) == 4
    assert len(calls) == len(patterns)


def test_each_distinct_message_is_walked_and_evaluated_once(monkeypatch):
    import wfcheck.safefun as safefun

    case = perfbench_gen().synth_chain(0, 64, sound=True)
    ctx = parse_context(case.context)
    roles, patterns = analyze_narration(parse_narration(case.protocol, ctx), ctx)
    walks, asked, computed = Counter(), set(), []
    real_walk, real_level, real_compute = safefun.occurrences, Evaluation.level, safefun._level
    monkeypatch.setattr(safefun, "occurrences", lambda m: walks.update([m]) or real_walk(m))
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
    # one walk per distinct message, one level per distinct (message, target):
    # a payload that several prefix roles receive is evaluated once; the
    # per-target walk walked a message for each of 7,681 evaluations here
    assert max(walks.values()) == 1
    assert set(walks) == {m for m, _ in asked}
    assert len(computed) == len(asked)
    assert received <= set(walks)
    assert (len(walks), len(computed)) == (183, 1332)


# -- step checks and the secrecy decision -------------------------------------

def test_step_check_for_the_session_key_passes(mod):
    ctx, roles, patterns = mod
    role = roles[1]
    checks = {c.target: c for c in check_step(role, Evaluation(Variant.MAX, ctx), patterns)}
    c = checks["kab^i"]
    assert c.received_bound == TOP
    assert c.declared == ABS
    assert c.lower_bound == ABS
    assert c.passed


def test_step_check_targets_every_atom_and_variable(mod):
    ctx, roles, patterns = mod
    checks = check_step(roles[3], Evaluation(Variant.MAX, ctx), patterns)
    assert [c.target for c in checks] == ["A", "Nb^i", "kbs", "?Y"]
    assert all(c.passed for c in checks)


def test_public_nonce_passes_trivially(mod):
    ctx, roles, patterns = mod
    checks = {c.target: c for c in check_step(roles[2], Evaluation(Variant.MAX, ctx), patterns)}
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
    padded = patterns + (extra,)
    for role in roles:
        if role.final.direction.value != "send":
            continue
        r_plus = role.final.payload
        from wfcheck.terms import ordered_atoms, ordered_vars

        for target in ordered_atoms(r_plus) + ordered_vars(r_plus):
            assert lower_bound(Evaluation(Variant.MAX, ctx), target, r_plus,
                               candidate_sources(r_plus, patterns))[0] == \
                lower_bound(Evaluation(Variant.MAX, ctx), target, r_plus,
                            candidate_sources(r_plus, padded))[0]
