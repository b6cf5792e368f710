"""Checks of the benchmark itself: the generators are deterministic, every
generated input parses, and every known answer holds.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import gen
from tracing import Tracer, layer_metrics
from worker import Analyzer, judge

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "corpus"


def env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.fixture(scope="module")
def analyzer():
    return Analyzer()


def all_cases() -> list[gen.Case]:
    return (
        gen.random_batch(3, 300)
        + gen.synth_chain_cases(3, 16, 2)
        + gen.synth_chain_cases(3, 32, 2)
        + gen.corpus_cases(CORPUS)
    )


def test_generators_are_deterministic_for_a_seed():
    assert gen.random_batch(5, 40) == gen.random_batch(5, 40)
    assert gen.random_batch(5, 40) != gen.random_batch(6, 40)
    assert gen.synth_chain_cases(5, 32, 4) == gen.synth_chain_cases(5, 32, 4)
    assert gen.synth_chain_cases(5, 32, 4) != gen.synth_chain_cases(6, 32, 4)


def test_generator_command_writes_identical_files(tmp_path):
    for run in ("a", "b"):
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "random-batch", "--seed", "9",
             "--count", "6", "--out", str(tmp_path / run)],
            check=True, capture_output=True,
        )
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert len(names) == 12
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_every_generated_input_parses(analyzer):
    for case in all_cases():
        ctx = analyzer.context.parse_context(case.context)
        narration = analyzer.protocol.parse_narration(case.protocol, ctx)
        assert narration.steps


def test_known_answers_hold(analyzer):
    answers = set()
    for case in all_cases():
        data = case.to_json()
        assert judge(data, analyzer.decide(data)) == ""
        answers.add(case.expect_exit)
    assert answers == {0, 2}


def test_corpus_known_answers_hold_through_the_cli():
    for case in gen.corpus_cases(CORPUS):
        proc = subprocess.run(
            [sys.executable, "-m", "wfcheck", "--protocol", str(CORPUS / f"{case.name}.proto"),
             "--context", str(CORPUS / f"{case.name}.ctx"), "--function", "max", "--check", "all"],
            capture_output=True, text=True, env=env(),
        )
        assert proc.returncode == case.expect_exit
        assert case.expect_verdict in proc.stdout


def test_synth_chain_work_does_not_depend_on_the_seed(analyzer):
    def unify_calls(seed):
        tracer = Tracer()
        with tracer:
            analyzer.decide(gen.synth_chain(seed, 16, sound=True).to_json())
        return tracer.summary()["calls"]["terms.unify"]

    assert unify_calls(0) == unify_calls(1)


def test_tracer_skips_removed_functions_and_restores_the_rest(analyzer, monkeypatch):
    from wfcheck import witness

    original = witness.unify
    monkeypatch.delattr(witness, "sources_for_target")
    tracer = Tracer()
    with tracer:
        assert witness.unify is not original
        data = gen.synth_chain(0, 4, sound=True).to_json()
        with pytest.raises(NameError):
            analyzer.decide(data)
    assert witness.unify is original
    metrics = layer_metrics(tracer.summary(), 1)
    assert "witness.sources_for_target.calls" not in metrics
    assert metrics["terms.unify.calls"] > 0


def test_a_traced_cli_that_dies_leaves_no_record():
    from run import last_json_line

    assert last_json_line("Traceback (most recent call last):\nRecursionError: too deep\n") is None
    assert last_json_line("") is None
    assert last_json_line('{"import_ms": 1.0, "summary": {}}\n') == {"import_ms": 1.0, "summary": {}}


def test_times_are_scaled_by_the_reference():
    import refspeed
    from run import end_to_end

    result = {
        "setups": [0.2, 0.3, 0.4], "setup_refs": [2 * refspeed.NOMINAL_S] * 3,
        "times": [0.01] * 20, "refs": [2 * refspeed.NOMINAL_S] * 4,
        "maxrss_kb": 1024, "failures": [], "attempted": 20,
    }
    wall, scaled = end_to_end(result, scaled=False), end_to_end(result)
    assert scaled["setup_s"][0] == pytest.approx(wall["setup_s"][0] / 2)
    assert scaled["verdicts_per_s"][0] == pytest.approx(wall["verdicts_per_s"][0] * 2)
    assert scaled["peak_rss_mb"] == wall["peak_rss_mb"]
    result["ref_nominal_s"] = 4 * refspeed.NOMINAL_S
    assert end_to_end(result)["verdicts_per_s"][0] == pytest.approx(wall["verdicts_per_s"][0] / 2)


def test_runner_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "random-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=""),
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
