"""Candidate sources, the two bounds, and the secrecy/authentication decisions."""

from collections import Counter

import pytest

from wfcheck import (
    BOTTOM,
    AtomAbsent,
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
    analyze_narration,
    apply,
    candidate_sources,
    challenge_check,
    check_authentication,
    check_secrecy,
    check_step,
    concat,
    lower_bound,
    parse_context,
    parse_narration,
)
from wfcheck.context import AuthChallenge
from wfcheck.protocol import Direction
from wfcheck.safefun import Variant
from wfcheck.witness import sources_for_target

from bounds import bound_ordering_check
from conftest import perfbench_gen

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
    assert [s.index for s in sources] == [2, 4]
    for src in sources:
        assert apply(src.mgu, src.pattern) == apply(src.mgu, r_plus)


def test_unrelated_encryption_has_no_source(mod):
    ctx, roles, patterns = mod
    stranger = Enc(A, SymKey("kxy"))
    assert candidate_sources(stranger, patterns) == []
    with pytest.raises(NoSource):
        lower_bound(Evaluation(Variant.MAX, ctx), A, stranger, [])


# -- the lower bound ---------------------------------------------------------

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
    assert [s.index for s, _ in sources_for_target(U, sources)] == [4]
    assert [s.index for s, _ in sources_for_target(V, sources)] == [2, 4]
    # unify binds the pattern side, so a carried variable stands for itself
    assert [t for _, t in sources_for_target(V, sources)] == [V, V]
    assert [t for _, t in sources_for_target(A, sources)] == [A, A]


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
    real_walk, real_level, real_select = safefun.occurrences, Evaluation.level, safefun._select
    monkeypatch.setattr(safefun, "occurrences", lambda m: walks.update([m]) or real_walk(m))
    monkeypatch.setattr(
        Evaluation, "level",
        lambda self, target, m: asked.add((m, target)) or real_level(self, target, m),
    )
    monkeypatch.setattr(
        safefun, "_select", lambda *args: computed.append(args[1]) or real_select(*args)
    )
    ok, checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert ok and len(checks) == 234
    received = {
        m for role in roles if role.final.direction is Direction.SEND
        for m in role.received_before(len(role.steps) - 1)
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
    ok, checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert ok
    assert len(checks) == 13
    assert all(c.passed for c in checks)


def test_secrecy_of_a_public_broadcast_is_vacuous():
    ctx = parse_context("principals A, B, I\nnonce Na fresh(A) level public\n")
    narr = parse_narration("protocol Hello\n1. A -> B : A.Na\n", ctx)
    roles, patterns = analyze_narration(narr, ctx)
    ok, checks = check_secrecy(roles, patterns, ctx, Variant.MAX)
    assert ok
    assert all(c.declared == BOTTOM for c in checks)


# -- authentication ----------------------------------------------------------

def test_modified_woolam_is_correct_for_authentication(mod):
    ctx, roles, patterns = mod
    overall, auth, secrecy_ok, _ = check_authentication(roles, patterns, ctx, Variant.MAX)
    assert secrecy_ok and overall
    assert auth.level == ABS
    assert auth.claimant_present and auth.above_bottom
    assert auth.message == "{Nb^i.{A.?Z}kbs}kbs"


def test_original_woolam_fails_authentication(orig):
    ctx, roles, patterns = orig
    overall, auth, secrecy_ok, checks = check_authentication(roles, patterns, ctx, Variant.MAX)
    assert secrecy_ok  # the flaw is in the identity binding, not the bounds
    assert not overall
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
    roles, patterns = analyze_narration(narr, ctx)
    overall, auth, _, _ = check_authentication(roles, patterns, ctx, Variant.MAX)
    assert not overall
    assert auth.level == BOTTOM
    assert auth.claimant_present      # bottom authorizes everybody
    assert not auth.above_bottom      # which is exactly why it fails


def test_challenge_on_a_send_step_is_rejected(mod):
    ctx, roles, patterns = mod
    bad = AuthChallenge(verifier="B", claimant="A", step=4, challenge="Nb")
    with pytest.raises(ChallengeNotReceived):
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
    from wfcheck.protocol import EncryptionPatternSet

    ctx, roles, patterns = mod
    # a four-part body matches no send of the protocol positionally
    extra = Enc(
        concat([Identity("S", copy=99), Identity("A", copy=99),
                Identity("B", copy=99), Variable("W", copy=99)]),
        SymKey("kxx", copy=99),
    )
    padded = EncryptionPatternSet(patterns.patterns + (extra,))
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
