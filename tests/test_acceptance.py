"""End-to-end acceptance criteria.

Each test prints one PASS line on success (run with ``pytest -s`` to see
them); a failing criterion shows up as an ordinary pytest failure.
"""

import json
import time

import pytest

from wfcheck import (
    Evaluation,
    Identity,
    Nonce,
    SecurityLevel,
    SymKey,
    Variable,
    analyze,
    analyze_narration,
    candidate_sources,
    canonical_form,
    check_secrecy,
    encryption_patterns,
    extract_roles,
    f_prime,
    format_message,
    lower_bound,
    parse_context,
    render,
)
from wfcheck.cli import main
from wfcheck.safefun import Variant
from wfcheck.terms import Enc, concat

from conftest import CORPUS
from evaluation import psi, select

ABS = SecurityLevel.of("A", "B", "S")
MAX = Variant.MAX


def _passed(n, text):
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_criterion_1_modified_woolam_golden_run(woolam_mod):
    start = time.perf_counter()
    narr, ctx = woolam_mod
    roles, patterns = analyze_narration(narr, ctx)

    kab_i = SymKey("kab", session="i")
    nb_i = Nonce("Nb", session="i")
    x, u, v = Variable("X"), Variable("U"), Variable("V")

    evaluation = Evaluation(MAX, ctx)
    # initiator: top on the receive, the shared-key neighborhood on the send
    assert f_prime(MAX, kab_i, x, ctx).is_top
    sent_key = roles[1].final.payload
    key_sources = candidate_sources(sent_key, patterns)
    assert lower_bound(evaluation, kab_i, sent_key, key_sources)[0] == ABS

    # server: both unknowns evaluate to the full honest set on both bounds
    server_recv = roles[5].steps[0].payload
    server_sent = roles[5].final.payload
    server_sources = candidate_sources(server_sent, patterns)
    assert f_prime(MAX, u, server_recv, ctx) == ABS
    assert lower_bound(evaluation, u, server_sent, server_sources)[0] == ABS
    assert f_prime(MAX, v, server_recv, ctx) == ABS
    assert lower_bound(evaluation, v, server_sent, server_sources)[0] == ABS

    # every role respects the secrecy criterion
    checks = check_secrecy(roles, patterns, ctx, MAX)
    assert all(c.passed for c in checks)
    per_role = {c.role for c in checks}
    assert per_role == {"A.1", "A.2", "B.1", "B.2", "S.1"}

    # the authentication witness
    auth_report = analyze(narr, ctx, MAX, "auth")
    auth = auth_report.auth
    assert auth.message == "{Nb^i.{A.?Z}kbs}kbs"
    assert f_prime(MAX, nb_i, roles[4].final.payload, ctx) == ABS
    assert auth.level == ABS and auth.claimant_present and auth.above_bottom
    assert auth_report.overall_passed

    report = analyze(narr, ctx, MAX, "all")
    assert render(report, "text").rstrip().endswith("correct with respect to authentication")

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden run took {elapsed:.3f}s"
    _passed(1, f"modified Woo-Lam golden run in {elapsed * 1000:.0f} ms")


def test_criterion_2_role_extraction_fidelity(woolam_mod):
    narr, ctx = woolam_mod
    roles = extract_roles(narr, ctx)
    assert [r.label for r in roles] == ["A.1", "A.2", "B.1", "B.2", "B.3", "S.1"]
    shapes = {
        r.label: [
            (s.step_id, s.direction.value, canonical_form(s.payload)) for s in r.steps
        ]
        for r in roles
    }
    assert shapes["A.2"] == [
        ("i.1", "send", "A"),
        ("i.2", "receive", "?V_0"),
        ("i.3", "send", "{B.kab^i}kas"),
    ]
    assert shapes["B.3"] == [
        ("i.1", "receive", "A"),
        ("i.2", "send", "Nb^i"),
        ("i.3", "receive", "?V_0"),
        ("i.4", "send", "{A.Nb^i.?V_0}kbs"),
        ("i.5", "receive", "{Nb^i.{A.?V_0}kbs}kbs"),
    ]
    assert shapes["S.1"] == [
        ("i.4", "receive", "{A.?V_0.{B.?V_1}kas}kbs"),
        ("i.5", "send", "{?V_0.{A.?V_1}kbs}kbs"),
    ]
    assert shapes["A.1"] == shapes["A.2"][:1]
    assert shapes["B.1"] == shapes["B.3"][:2]
    assert shapes["B.2"] == shapes["B.3"][:4]

    patterns = encryption_patterns(roles)
    assert [canonical_form(p) for p in patterns] == [
        "{B.kab^i}kas",
        "{A.Nb^i.?V_0}kbs",
        "{Nb^i.{A.?V_0}kbs}kbs",
        "{A.?V_0.{B.?V_1}kas}kbs",
        "{?V_0.{A.?V_1}kbs}kbs",
    ]
    _passed(2, "six generalized roles and five encryption patterns")


def test_criterion_3_guideline_selection_example():
    ctx = parse_context(
        "principals A, B, C, D, S, I\n"
        "key kas shared(A,S)\n"
        "key kab shared(A,B)\n"
        "nonce alpha level {A,B,S}\n"
    )
    alpha = ctx.resolve_atom("alpha")
    m = Enc(concat([Identity("C"), Enc(concat([alpha, Identity("D")]), SymKey("kas"))]), SymKey("kab"))
    sel = select(MAX, alpha, m, ctx)
    assert sel.atoms == {Identity("C"), Identity("D"), SymKey("kab")}
    level = f_prime(MAX, alpha, m, ctx)
    assert level == SecurityLevel.of("A", "B", "C", "D")
    assert psi(sel, ctx) == level
    _passed(3, "guideline selection example {A,B,C,D}")


def test_criterion_4_original_woolam_differential(woolam_orig, capsys):
    narr, ctx = woolam_orig
    roles, patterns = analyze_narration(narr, ctx)
    report = analyze(narr, ctx, MAX, "auth")
    auth = report.auth
    assert not report.overall_passed
    nb_i = Nonce("Nb", session="i")
    final_receive = roles[4].final.payload
    assert format_message(final_receive) == "{Nb^i}kbs"
    assert f_prime(MAX, nb_i, final_receive, ctx) == SecurityLevel.of("B", "S")
    assert auth.level == SecurityLevel.of("B", "S")
    assert not auth.claimant_present

    code = main([
        "--protocol", str(CORPUS / "woolam_original.proto"),
        "--context", str(CORPUS / "woolam_original.ctx"),
        "--check", "auth",
    ])
    out = capsys.readouterr().out
    assert code == 2
    assert "claimant A not in {B,S}" in out
    _passed(4, "original Woo-Lam rejected with F' = {B,S}, exit code 2")


def test_criterion_5_property_suites():
    from test_properties import run_suite

    randomized = ["lattice", "derivation", "wellformed", "unify", "bounds", "invariance"]
    start = time.perf_counter()
    counts = {name: run_suite(name) for name in randomized}
    elapsed = time.perf_counter() - start
    for name in randomized:
        assert counts[name] >= 500, f"suite {name}: only {counts[name]} cases"
    assert elapsed < 30.0, f"property suites took {elapsed:.1f}s"
    summary = ", ".join(f"{k}={v}" for k, v in counts.items())
    _passed(5, f"property suites in {elapsed:.1f}s ({summary})")


def test_criterion_6_byte_identical_reports(woolam_mod):
    narr, ctx = woolam_mod
    for fmt in ("text", "json"):
        first = render(analyze(narr, ctx, MAX, "all"), fmt)
        second = render(analyze(narr, ctx, MAX, "all"), fmt)
        assert first.encode() == second.encode(), f"{fmt} reports differ between runs"
    doc = json.loads(render(analyze(narr, ctx, MAX, "all"), "json"))
    assert doc["overall"] == "pass"
    _passed(6, "byte-identical text and JSON reports")
