"""Report rendering, JSON round-trip, CLI behavior and exit codes."""

import json
import pathlib
import subprocess
import sys

import pytest

from wfcheck import analyze, render, report_from_json
from wfcheck.cli import main
from wfcheck.safefun import Variant

from conftest import CORPUS

MOD = [str(CORPUS / "woolam_modified.proto"), str(CORPUS / "woolam_modified.ctx")]
ORIG = [str(CORPUS / "woolam_original.proto"), str(CORPUS / "woolam_original.ctx")]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_modified_woolam_passes_authentication(capsys):
    code, out, _ = run_cli(
        ["--protocol", MOD[0], "--context", MOD[1], "--check", "auth"], capsys
    )
    assert code == 0
    assert out.rstrip().endswith("correct with respect to authentication")


def test_original_woolam_exits_no_decision(capsys):
    code, out, _ = run_cli(
        ["--protocol", ORIG[0], "--context", ORIG[1], "--check", "auth"], capsys
    )
    assert code == 2
    assert "claimant A not in {B,S}" in out
    assert "no decision" in out


def test_missing_context_file_is_an_input_error(capsys):
    code, _, err = run_cli(
        ["--protocol", MOD[0], "--context", "/nonexistent.ctx"], capsys
    )
    assert code == 3
    assert "error" in err


def test_check_auth_without_a_challenge_is_an_input_error(tmp_path, capsys):
    ctx_file = tmp_path / "plain.ctx"
    ctx_file.write_text("principals A, B, I\nnonce Na fresh(A) level public\n")
    proto = tmp_path / "p.proto"
    proto.write_text("protocol P\n1. A -> B : Na\n")
    code, _, err = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file), "--check", "auth"], capsys
    )
    assert code == 3 and "challenge" in err


def test_check_all_without_challenge_runs_secrecy_only(tmp_path, capsys):
    ctx_file = tmp_path / "plain.ctx"
    ctx_file.write_text("principals A, B, I\nnonce Na fresh(A) level public\n")
    proto = tmp_path / "p.proto"
    proto.write_text("protocol P\n1. A -> B : Na\n")
    code, out, _ = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file)], capsys
    )
    assert code == 0
    assert "correct with respect to secrecy" in out


def test_empty_protocol_is_a_vacuous_pass(tmp_path, capsys):
    ctx_file = tmp_path / "plain.ctx"
    ctx_file.write_text("principals A, B, I\n")
    proto = tmp_path / "p.proto"
    proto.write_text("protocol Empty\n")
    code, out, _ = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file), "--check", "secrecy"], capsys
    )
    assert code == 0
    assert "(none: the protocol has no send steps)" in out


def test_text_report_shows_both_bounds_for_the_session_key(capsys):
    code, out, _ = run_cli(["--protocol", MOD[0], "--context", MOD[1]], capsys)
    assert code == 0
    block = out.split("atom kab^i")[1].split("[pass]")[0]
    assert "upper bound on receives F' = ⊤" in block
    assert "lower bound on send = {A,B,S}" in block


def test_reports_are_deterministic(capsys):
    outputs = []
    for fmt in ("text", "json"):
        pair = []
        for _ in range(2):
            code, out, _ = run_cli(
                ["--protocol", MOD[0], "--context", MOD[1], "--format", fmt], capsys
            )
            assert code == 0
            pair.append(out)
        assert pair[0] == pair[1]
        outputs.append(pair[0])
    assert outputs[0] != outputs[1]


def test_out_file_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["--protocol", MOD[0], "--context", MOD[1], "--format", "json", "--out", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["overall"] == "pass"


def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run_cli(
        ["--protocol", MOD[0], "--context", MOD[1], "--out", str(target)], capsys
    )
    assert code == 3 and out == ""
    assert err.startswith("wfcheck: error:")
    assert not target.exists()


def test_deep_nesting_is_an_input_error(tmp_path, capsys):
    ctx_file = tmp_path / "deep.ctx"
    ctx_file.write_text("principals A, B, I\nkey kab shared(A,B)\n")
    proto = tmp_path / "deep.proto"
    proto.write_text("protocol Deep\n1. A -> B : " + "{" * 1200 + "A" + "}kab" * 1200 + "\n")
    code, out, err = run_cli(["--protocol", str(proto), "--context", str(ctx_file)], capsys)
    assert code == 3 and out == ""
    assert err.startswith("wfcheck: error: line 2, column ")
    assert "Traceback" not in err


ROLE_ERROR_CTX = (
    "principals A, B, S, I\n"
    "key kas shared(A,S)\nkey kbs shared(B,S)\n"
    "key kab fresh(A) level {A,B,S}\nnonce Na fresh(A) level {A,B}\n"
)


@pytest.mark.parametrize("steps, message", [
    ("1. A -> B : {Na}kas\n2. S -> B : {Na}kbs\n", "line 3: S sends 'Na' without ever learning it"),
    (
        "1. A -> B : {kab}kas\n# B learns kab only as an unknown\n"
        "2. A -> B : kab\n3. B -> A : {B}kab\n",
        "line 5: B cannot encrypt under a key it does not possess",
    ),
    ("1. A -> B : A\n2. B -> A : ε\n", "line 3: cannot abstract message component 'ε'"),
], ids=["unlearned-send", "key-not-possessed", "empty-payload"])
def test_role_extraction_errors_name_the_step_line(steps, message, tmp_path, capsys):
    ctx_file = tmp_path / "roles.ctx"
    ctx_file.write_text(ROLE_ERROR_CTX)
    proto = tmp_path / "roles.proto"
    proto.write_text("protocol P\n" + steps, encoding="utf-8")
    code, out, err = run_cli(["--protocol", str(proto), "--context", str(ctx_file)], capsys)
    assert code == 3 and out == ""
    assert err == f"wfcheck: error: {message}\n"
    assert "Traceback" not in err


def test_a_context_leaking_a_secret_to_the_intruder_is_an_input_error(tmp_path, capsys):
    # the intruder holds kab and so decrypts Na: no secrecy verdict may stand
    ctx_file = tmp_path / "leak.ctx"
    ctx_file.write_text(
        "principals A, B, I\nkey kab shared(A,B)\nnonce Na fresh(A) level {A,B}\n"
        "intruder knows kab\n"
    )
    proto = tmp_path / "leak.proto"
    proto.write_text("protocol Leak\n1. A -> B : {Na}kab\n")
    code, out, err = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file), "--check", "secrecy"], capsys
    )
    assert code == 3 and out == ""
    assert err == "wfcheck: error: line 4: intruder knows 'kab', but its level {A,B} excludes I\n"


# The intruder replays message 1 to A as message 2; A decrypts it and sends
# Na in the clear. Insecure in the typed Dolev-Yao model, so no variant may
# pass it for secrecy.
REFLECT_PROTO = "protocol Reflect\n1. A -> B : {Na}kab\n2. B -> A : {Nb}kab\n3. A -> B : Nb\n"
REFLECT_CTX = (
    "principals A, B, I\nkey kab shared(A,B)\n"
    "nonce Na fresh(A) level {A,B}\nnonce Nb fresh(B) level public\n"
)


@pytest.mark.xfail(strict=True, reason="variables get declared level ⊥ (ROADMAP item 1)")
@pytest.mark.parametrize("function", ["max", "ek", "n"])
def test_reflection_attack_is_not_passed_for_secrecy(function, tmp_path, capsys):
    proto = tmp_path / "reflect.proto"
    proto.write_text(REFLECT_PROTO)
    ctx_file = tmp_path / "reflect.ctx"
    ctx_file.write_text(REFLECT_CTX)
    code, _, _ = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file),
         "--function", function, "--check", "secrecy"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("function", ["max", "ek", "n"])
@pytest.mark.parametrize("stem", ["woolam_modified", "woolam_original"])
def test_cli_matches_the_golden_reports(stem, function, capsys):
    args = ["--protocol", str(CORPUS / f"{stem}.proto"), "--context", str(CORPUS / f"{stem}.ctx")]
    args += ["--function", function, "--check", "all"]
    golden = CORPUS / "expected" / f"{stem}.{function}"
    golden_json = pathlib.Path(f"{golden}.json").read_text(encoding="utf-8")
    code = {"pass": 0, "no-decision": 2}[json.loads(golden_json)["overall"]]
    assert run_cli([*args, "--format", "json"], capsys) == (code, golden_json, "")
    golden_text = pathlib.Path(f"{golden}.txt").read_text(encoding="utf-8")
    assert run_cli([*args, "--format", "text"], capsys) == (code, golden_text, "")


def test_json_round_trip(woolam_mod, woolam_orig):
    narr, ctx = woolam_mod
    report = analyze(narr, ctx, Variant.MAX, "all")
    assert report_from_json(render(report, "json")) == report
    narr, ctx = woolam_orig
    report = analyze(narr, ctx, Variant.EK, "secrecy")
    assert report.auth is None
    assert report_from_json(render(report, "json")) == report


def test_json_keys_follow_schema_v1_order(woolam_mod):
    narr, ctx = woolam_mod
    doc = json.loads(render(analyze(narr, ctx, Variant.MAX, "all"), "json"))
    assert list(doc) == [
        "version", "protocol", "variant", "context_digest", "principals", "roles",
        "patterns", "checks", "auth", "secrecy_passed", "auth_passed", "overall",
    ]
    assert list(doc["roles"][0]) == ["label", "steps"]
    assert list(doc["checks"][0]) == [
        "role", "step", "target", "target_is_variable", "received_bound", "declared",
        "lower_bound", "sources", "from_patterns", "passed",
    ]
    assert list(doc["auth"]) == [
        "verifier", "claimant", "challenge", "step", "message", "level",
        "claimant_present", "above_bottom", "passed",
    ]


def test_every_text_level_appears_in_json(woolam_mod):
    narr, ctx = woolam_mod
    report = analyze(narr, ctx, Variant.MAX, "all")
    doc = json.loads(render(report, "json"))
    assert len(doc["checks"]) == len(report.checks)
    for rec, c in zip(doc["checks"], report.checks):
        for field in ("received_bound", "declared", "lower_bound"):
            assert rec[field] is not None
    assert doc["auth"]["level"] == {"kind": "set", "members": ["A", "B", "S"]}


def test_variant_flag_changes_the_analysis(capsys):
    code_max, out_max, _ = run_cli(
        ["--protocol", MOD[0], "--context", MOD[1], "--function", "max"], capsys
    )
    code_n, out_n, _ = run_cli(
        ["--protocol", MOD[0], "--context", MOD[1], "--function", "n"], capsys
    )
    assert code_max == 0
    assert out_max != out_n


def test_cli_subprocess_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "wfcheck", "--protocol", ORIG[0], "--context", ORIG[1]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "no decision" in proc.stdout
