"""Report rendering, JSON round-trip, CLI behavior and exit codes."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfcheck import (
    ChallengeNotReceived,
    analyze,
    parse_context,
    parse_narration,
    render,
    report_from_json,
)
from wfcheck.cli import HELP, OPTIONS, USAGE, main, read_options
from wfcheck.report import render_json, render_text
from wfcheck.safefun import Variant

from cli_reference import build_parser
from conftest import CORPUS, CORPUS_STEMS

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


def test_a_challenge_received_in_the_clear_is_no_decision(tmp_path, capsys):
    ctx_file = tmp_path / "clear.ctx"
    ctx_file.write_text(
        "principals A, B, I\nnonce Nb fresh(B) level public\n"
        "challenge auth verifier=B claimant=A step=2 challenge=Nb\n"
    )
    proto = tmp_path / "clear.proto"
    proto.write_text("protocol Clear\n1. B -> A : Nb\n2. A -> B : Nb\n")
    code, out, err = run_cli(["--protocol", str(proto), "--context", str(ctx_file)], capsys)
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "verdict: no decision (the challenge is received in a public state)"


def test_check_auth_without_a_challenge_is_an_input_error(tmp_path, capsys):
    ctx_file = tmp_path / "plain.ctx"
    ctx_file.write_text("principals A, B, I\nnonce Na fresh(A) level public\n")
    proto = tmp_path / "p.proto"
    proto.write_text("protocol P\n1. A -> B : Na\n")
    code, _, err = run_cli(
        ["--protocol", str(proto), "--context", str(ctx_file), "--check", "auth"], capsys
    )
    assert code == 3 and "challenge" in err


def test_analyze_refuses_auth_without_a_challenge_before_extracting_roles():
    # B encrypts under a key it does not possess, which role extraction rejects
    ctx = parse_context(ROLE_ERROR_CTX)
    narration = parse_narration(
        "protocol P\n1. A -> B : {kab}kas\n2. A -> B : kab\n3. B -> A : {B}kab\n", ctx
    )
    with pytest.raises(ChallengeNotReceived) as err:
        analyze(narration, ctx, Variant.MAX, "auth")
    assert str(err.value) == "the context declares no authentication challenge"


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
    # a send must hold its key: a long-term key the sender is not authorized
    # for, or another principal's fresh key it never received
    ("1. A -> B : {A}kbs\n", "line 2: A sends 'kbs' without ever learning it"),
    ("1. A -> B : A\n2. B -> A : {B}kab\n", "line 3: B sends 'kab' without ever learning it"),
    (
        "1. A -> B : {kab}kas\n# B learns kab only as an unknown\n"
        "2. A -> B : kab\n3. B -> A : {B}kab\n",
        "line 5: B cannot encrypt under a key it does not possess",
    ),
    ("1. A -> B : A\n2. B -> A : ε\n", "line 3, column 13: unexpected character 'ε'"),
    ("1. A -> B : ?X_\n", "line 2, column 13: unexpected character '?'"),
    ("1. A -> B : ?X_a\n", "line 2, column 13: unexpected character '?'"),
    ("1. A -> B : A.ε\n", "line 2, column 15: unexpected character 'ε'"),
    ("1. A -> B : {ε}kab\n", "line 2, column 14: unexpected character 'ε'"),
    # names follow the context rule: a letter, then letters or digits
    ("1. A -> B : A_1\n", "line 2, column 14: unexpected character '_'"),
    ("1. A -> B : Na^i\n", "line 2, column 15: unexpected character '^'"),
    ("1. A -> B : {A}kab_1\n", "line 2, column 19: unexpected character '_'"),
    ("1. A_1 -> B : A\n", "line 2, column 5: unexpected character '_'"),
], ids=[
    "unlearned-send", "unauthorized-long-term-key", "unreceived-fresh-key",
    "key-not-possessed", "empty-payload",
    "variable-without-index", "variable-with-bad-index", "empty-part", "empty-body",
    "rename-index-in-name", "session-tag-in-name", "rename-index-in-key",
    "rename-index-in-principal",
])
def test_role_extraction_errors_name_the_step_line(steps, message, tmp_path, capsys):
    ctx_file = tmp_path / "roles.ctx"
    ctx_file.write_text(ROLE_ERROR_CTX)
    proto = tmp_path / "roles.proto"
    proto.write_text("protocol P\n" + steps, encoding="utf-8")
    code, out, err = run_cli(["--protocol", str(proto), "--context", str(ctx_file)], capsys)
    assert code == 3 and out == ""
    assert err == f"wfcheck: error: {message}\n"
    assert "Traceback" not in err


# Needham-Schroeder shared key (Needham and Schroeder 1978; its step 5,
# {Nb-1}kab, needs a function the term algebra lacks) and Yahalom (Clark and
# Jacob 1997, 6.3.6). S hands out kab, and a received key is never held, so
# the first send under kab is rejected. ROADMAP item 4 (received keys)
# changes these diagnostics on purpose.
RECEIVED_KEY_CTX = (
    "principals A, B, S, I\n"
    "key kas shared(A,S)\nkey kbs shared(B,S)\nkey kab fresh(S) level {A,B,S}\n"
    "nonce Na fresh(A) level public\nnonce Nb fresh(B) level {A,B,S}\n"
)
NSSK = (
    "protocol NSSK\n1. A -> S : A.B.Na\n2. S -> A : {Na.B.kab.{kab.A}kbs}kas\n"
    "3. A -> B : {kab.A}kbs\n4. B -> A : {Nb}kab\n"
)
YAHALOM = (
    "protocol Yahalom\n1. A -> B : A.Na\n2. B -> S : B.{A.Na.Nb}kbs\n"
    "3. S -> A : {B.kab.Na.Nb}kas.{A.kab}kbs\n4. A -> B : {A.kab}kbs.{Nb}kab\n"
)


@pytest.mark.parametrize("narration, message", [
    (NSSK, "line 5: B cannot encrypt under a key it does not possess"),
    (YAHALOM, "line 5: A cannot encrypt under a key it does not possess"),
], ids=["nssk", "yahalom"])
def test_a_received_session_key_is_not_held(narration, message, tmp_path, capsys):
    ctx_file = tmp_path / "keys.ctx"
    ctx_file.write_text(RECEIVED_KEY_CTX)
    proto = tmp_path / "keys.proto"
    proto.write_text(narration)
    code, out, err = run_cli(["--protocol", str(proto), "--context", str(ctx_file)], capsys)
    assert (code, out, err) == (3, "", f"wfcheck: error: {message}\n")


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


def corpus_args(stem):
    return ["--protocol", str(CORPUS / f"{stem}.proto"), "--context", str(CORPUS / f"{stem}.ctx")]


# The intruder replays message 1 to A as message 2; A decrypts it and sends
# Na in the clear. Insecure in the typed Dolev-Yao model, so no variant may
# pass it for secrecy.
@pytest.mark.parametrize("function", ["max", "ek", "n"])
def test_reflection_attack_is_not_passed_for_secrecy(function, capsys):
    code, _, _ = run_cli(
        [*corpus_args("reflect"), "--function", function, "--check", "secrecy"], capsys
    )
    assert code == 2


# More protocols insecure in the same model. ReflectWrapped is the reflection
# with identities in the clear. In Fwd and Fwd2 the honest run itself gives Na
# to S, outside Na's level, and S then sends Na in the clear.
INSECURE = {"ReflectWrapped": "reflect_wrapped", "Fwd2": "fwd2", "Fwd": "fwd"}


@pytest.mark.parametrize("function", ["max", "ek", "n"])
@pytest.mark.parametrize("name", list(INSECURE))
def test_other_insecure_protocols_are_not_passed_for_secrecy(name, function, capsys):
    code, _, _ = run_cli(
        [*corpus_args(INSECURE[name]), "--function", function, "--check", "secrecy"], capsys
    )
    assert code == 2


@pytest.mark.parametrize("function", ["max", "ek", "n"])
@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_cli_matches_the_golden_reports(stem, function, capsys):
    args = [*corpus_args(stem), "--function", function, "--check", "all"]
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


def test_a_report_cannot_store_a_verdict_beside_its_levels(woolam_mod):
    narr, ctx = woolam_mod
    report = analyze(narr, ctx, Variant.MAX, "all")
    with pytest.raises(ValueError):
        report._replace(auth_passed=False)  # derived from auth, not a field
    assert report.auth_passed and report.overall_passed


@pytest.mark.parametrize(
    "golden", sorted((CORPUS / "expected").glob("*.json")), ids=lambda path: path.stem
)
def test_golden_reports_read_back_and_render_byte_for_byte(golden):
    text = golden.read_text(encoding="utf-8")
    report = report_from_json(text)
    assert render_json(report) == text
    assert render_text(report) == golden.with_suffix(".txt").read_text(encoding="utf-8")


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


def _run_module(args, stdout):
    return subprocess.run(
        [sys.executable, "-m", "wfcheck", *args], stdout=stdout, stderr=subprocess.PIPE, text=True
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize("args", [["--protocol", MOD[0], "--context", MOD[1]], ["--help"]])
def test_a_write_to_a_full_device_is_an_input_error(args):
    with open("/dev/full", "w") as full:
        proc = _run_module(args, full)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("wfcheck: error: ")


def test_a_write_to_a_pipe_nobody_reads_is_an_input_error():
    # the help is a small write that waits in the buffer for its flush; were
    # it kept there after the flush failed, the flush at exit would fail again
    for args in (["--protocol", MOD[0], "--context", MOD[1]], ["--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_module(args, write_end)
        finally:
            os.close(write_end)
        # one line: no traceback, and no "Exception ignored" from the flush at exit
        assert proc.returncode == 3
        [line] = proc.stderr.splitlines()
        assert line.startswith("wfcheck: error: ")


def _run_redirected(redirect, args):
    """``python -m wfcheck`` on ``args``, with a shell redirection applied."""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m wfcheck "$@" {redirect}', sys.executable, *args],
        stderr=subprocess.PIPE, text=True,
    )


@pytest.mark.parametrize("redirect, args", [
    ("2>/dev/full", ["--protocol", MOD[0], "--context", MOD[1], "--bogus"]),
    ("2>/dev/full", ["--protocol", MOD[0], "--context", "/nonexistent.ctx"]),
    ("2>&-", ["--bogus"]),
    (">&-", ["--protocol", MOD[0], "--context", MOD[1]]),
], ids=["bad-argv-full-stderr", "missing-context-full-stderr", "closed-stderr", "closed-stdout"])
def test_a_stream_that_cannot_be_written_still_ends_in_exit_3(redirect, args):
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    proc = _run_redirected(redirect, args)
    assert proc.returncode == 3
    # an error line that cannot be written is dropped; else it is the one line
    lines = proc.stderr.splitlines()
    assert len(lines) == (0 if redirect.startswith("2>") else 1)
    assert all(line.startswith("wfcheck: error: ") for line in lines)


def test_help_names_every_option_and_choice(capsys):
    code, out, err = run_cli(["--help"], capsys)
    assert (code, out, err) == (0, HELP, "")
    usage, _, rows = HELP.partition("options:")
    for name, (choices, _, text) in OPTIONS.items():
        for word in (name, *(choices or ())):
            assert word in usage and word in rows
        assert text in rows


@pytest.mark.parametrize("argv, read", [
    # an error up to 3.12, help in 3.13.0
    (["-hx"], "error"),
    # help up to 3.12, an error in 3.13.0
    (["-h=h"], "error"),
    # an empty list up to 3.12, so that --protocol=-- crashed; "--" in 3.13.0
    (["--protocol", "p", "--context", "c", "--out=--"], "--"),
])
def test_argvs_argparse_versions_disagree_on(argv, read):
    if read == "error":
        with pytest.raises(ValueError):
            read_options(argv)
    else:
        assert read_options(argv)["out"] == read


REFERENCE = build_parser()
# Left out, as argparse reads them differently across Python versions:
# "-h" followed by letters other than "h", "-h=", and "--" as a value.
# test_argvs_argparse_versions_disagree_on pins how they are read here.
_VALUES = st.sampled_from(
    [*(value for choices, _, _ in OPTIONS.values() for value in choices or ()),
     "MAX", "p.proto", "", "-x", "-1", "-0.5", "-", "--x", "a b", "-x y", "-h", "--out"]
)


def _pairs(names, values):
    """An option's name cut to a prefix, and a value: one of ``values``
    or, for an option with choices, one of its own."""
    return st.sampled_from(names).flatmap(lambda name: st.tuples(
        st.integers(3, len(name)).map(lambda n: name[:n]),
        st.one_of(values, st.sampled_from(OPTIONS.get(name, ((),))[0] or ["p.proto"])),
    ))


def _argv(starts, pairs, loose):
    """One of ``starts``, then chunks: an option and its value, an
    option=value word, or a loose word."""
    chunks = st.one_of(
        pairs.map(list),
        pairs.map(lambda pair: ["=".join(pair)]),
        loose.map(lambda word: [word]),
    )
    return st.tuples(st.sampled_from(starts), st.lists(chunks, max_size=4)).map(
        lambda parts: parts[0] + [word for chunk in parts[1] for word in chunk]
    )


_ANY_PAIR = _pairs(["--help", *OPTIONS], _VALUES)
_JUNK = st.sampled_from(["--", "-h", "--help", "-hh", "-q", "---", "--=x", "junk"])
_REQUIRED_ARGS = ["--protocol", "p", "--context", "c"]
_ARGV = st.one_of(
    _argv(
        [[], _REQUIRED_ARGS],
        _ANY_PAIR,
        st.one_of(_ANY_PAIR.map(lambda pair: pair[0]), _VALUES, _JUNK),
    ),
    # mostly accepted: no help, no loose word, fewer bad values
    _argv(
        [_REQUIRED_ARGS],
        _pairs(list(OPTIONS), st.sampled_from(["-1", "-0.5", "-x y", ""])),
        st.nothing(),
    ),
)


def _reference_outcome(argv):
    """The reference's values for ``argv``, or "help" or "error" where it exits."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(REFERENCE.parse_args(argv))
    except SystemExit as exc:
        return "error" if exc.code else "help"


@given(argv=_ARGV)
@settings(max_examples=1000)
@example(argv=["--proto", "p", "--cont=c", "--fo", "json", "--format=text"])
@example(argv=["--protocol", "p", "--context", "c", "--out", "-1"])
@example(argv=["--protocol", "p", "--context", "c", "--out=-x"])
@example(argv=["--protocol", "p", "--context", "c", "--out", "-x y"])
@example(argv=["--protocol", "p", "--context", "c", "--out", "-x"])
@example(argv=["--protocol", "p", "--c", "c"])
@example(argv=["-h", "--c"])
@example(argv=["-h", "--", "--c"])
@example(argv=["--function", "foo", "-h"])
@example(argv=["--protocol", "p", "--context", "c", "--"])
def test_options_agree_with_the_argparse_reference(argv):
    expected = _reference_outcome(argv)
    if isinstance(expected, dict):
        assert read_options(argv) == expected
        return
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if expected == "help":
        assert (code, out.getvalue(), err.getvalue()) == (0, HELP, "")
    else:
        assert code == 3 and out.getvalue() == ""
        usage, _, error = err.getvalue().rpartition("wfcheck: error: ")
        assert usage == USAGE and "\n" not in error.rstrip("\n")
