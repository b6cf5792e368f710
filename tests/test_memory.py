"""A verdict's memory goes back by reference counting alone.

No public path leaves a reference cycle behind: with the cycle collector
off while it runs, a collection afterwards finds nothing unreachable. A
recursive helper nested in its caller refers to itself through its closure
cell, so every call would leave a function-cell cycle holding all it
closed over until the collector ran; the package's recursive walks are
module-level functions that take their accumulator instead. Error paths
are held to the same rule, with the exception caught and dropped inside
the window.

Each test collects once and then freezes what survives (``gc.freeze``),
so the collection after each call looks only at the objects made since,
and a window costs about what its call costs.
"""

import contextlib
import gc
import io

import pytest

from conftest import CORPUS, CORPUS_STEMS, perfbench_gen
from wfcheck import (
    AnalysisError,
    Variant,
    analyze,
    extract_roles,
    parse_context,
    parse_narration,
    render_json,
    render_text,
    report_from_json,
)
from wfcheck.cli import main
from wfcheck.protocol import MAX_NESTING


@contextlib.contextmanager
def collector_off():
    """A test run after a full collection, with the survivors frozen and
    the collector disabled."""
    enabled = gc.isenabled()
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()


def unreachable(fn, *args):
    """The objects that ``fn(*args)`` left unreachable, and the message of
    the ``AnalysisError`` or ``ValueError`` it raised (None if none)."""
    message = None
    try:
        fn(*args)
    except (AnalysisError, ValueError) as exc:
        message = str(exc)
    return gc.collect(), message


def _inputs():
    """Each corpus protocol and a few generated ones, by name, as their
    context and narration texts."""
    inputs = {
        stem: ((CORPUS / f"{stem}.ctx").read_text(), (CORPUS / f"{stem}.proto").read_text())
        for stem in CORPUS_STEMS
    }
    gen = perfbench_gen()
    for case in gen.synth_chain_cases(1, 8, 2) + gen.random_batch(1, 3):
        inputs[case.name] = (case.context, case.protocol)
    return inputs


INPUTS = _inputs()


@pytest.mark.parametrize("context_text, protocol_text", INPUTS.values(), ids=INPUTS)
def test_every_phase_of_a_verdict_leaves_no_cycle(context_text, protocol_text):
    with collector_off():
        assert unreachable(parse_context, context_text) == (0, None)
        ctx = parse_context(context_text)
        assert unreachable(parse_narration, protocol_text, ctx) == (0, None)
        narration = parse_narration(protocol_text, ctx)
        for variant in Variant:
            assert unreachable(analyze, narration, ctx, variant, "all") == (0, None), variant
        report = analyze(narration, ctx, Variant.MAX, "all")
        assert unreachable(render_text, report) == (0, None)
        assert unreachable(render_json, report) == (0, None)
        assert unreachable(report_from_json, render_json(report)) == (0, None)


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
def test_a_command_line_run_leaves_no_cycle(tmp_path, fmt, ext):
    stem = CORPUS / "woolam_original"
    out = tmp_path / f"report.{ext}"
    argv = ["--protocol", f"{stem}.proto", "--context", f"{stem}.ctx", "--format", fmt,
            "--out", str(out)]
    main(argv)  # the first JSON run imports the codec, which is no garbage
    with collector_off():
        assert unreachable(main, argv) == (0, None)
    golden = CORPUS / "expected" / f"woolam_original.max.{ext}"
    assert out.read_text() == golden.read_text()


def test_a_command_line_error_leaves_no_cycle(tmp_path):
    argv = ["--protocol", str(CORPUS / "woolam_modified.proto"),
            "--context", str(tmp_path / "missing.ctx")]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), collector_off():
        assert unreachable(main, argv) == (0, None)
    assert stderr.getvalue().startswith("wfcheck: error: ")


WOOLAM = parse_context((CORPUS / "woolam_modified.ctx").read_text())
DEEP = MAX_NESTING + 1

NARRATION_ERRORS = {
    "stray character": ("1. A -> B : A @", "line 2, column 15: unexpected character '@'"),
    "undeclared atom": (
        "1. A -> B : Nx", "line 2, column 13: atom 'Nx' is not declared in the context"
    ),
    "nesting": (
        "1. A -> B : " + "{" * DEEP + "A" + "}kas" * DEEP,
        f"line 2, column {13 + MAX_NESTING}: encryption nested deeper than {MAX_NESTING} levels",
    ),
    "end of input": ("1. A -> B : {A}", "line 2: unexpected end of input"),
}


@pytest.mark.parametrize("step, message", NARRATION_ERRORS.values(), ids=NARRATION_ERRORS)
def test_a_narration_error_leaves_no_cycle(step, message):
    with collector_off():
        assert unreachable(parse_narration, f"protocol P\n{step}\n", WOOLAM) == (0, message)


def test_role_context_and_report_errors_leave_no_cycle():
    unheld = parse_narration("protocol P\n1. A -> B : Nb\n", WOOLAM)
    report = (CORPUS / "expected" / "woolam_modified.max.json").read_text()
    with collector_off():
        count, message = unreachable(extract_roles, unheld, WOOLAM)
        assert (count, message) == (0, "line 2: A sends 'Nb' without ever learning it")
        count, message = unreachable(parse_context, "principals A, B, S, I\nkey kas shared(A,Q)\n")
        assert (count, message) == (0, "line 2: undeclared principal 'Q'")
        for malformed in (report.replace('"max"', '"maximum"', 1), report[:-3]):
            count, message = unreachable(report_from_json, malformed)
            assert count == 0 and message is not None, malformed
