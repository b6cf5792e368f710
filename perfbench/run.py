"""wfcheck benchmark: time to verdict, measured from outside the package.

    python3 perfbench/run.py --workload synth-chain --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --list-metrics

Run from the repository root. Every workload is a closed loop with one
client in one process (a CI job or a user waiting for each verdict). Each
verdict is checked against the input's known answer before any metric is
reported; a mismatch, an exception, an exit code outside {0, 2} or a JSON
report that does not round-trip is a failed operation.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics. The lines before
it give the sample counts, every end-to-end figure (also those BENCHMARK.json
does not bound: ``verdict_ms_p50``, ``verdict_ms_p90``, ``failed_ratio``),
the same times unscaled (``wall``; end-to-end times are scaled to a
reference machine speed, see ``refspeed.py``) and a sha256 of the rendered
report bytes of every distinct input, which must not change under a pure
speed change for the same seed. Traced runs also write their spans under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import random
import resource
import statistics
import subprocess
import sys
import time

import gen
import refspeed

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = pathlib.Path(__file__).resolve().parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = ROOT / ".perfbench_out"
PYTHON = sys.executable

SETUP_SPAWNS = 11
#: A p90 needs at least ten samples beyond it; the timed loop runs past
#: ``--seconds`` rather than stop short of this many verdicts, or of one
#: verdict per distinct input, which the report digest covers.
MIN_VERDICTS = 100
SYNTH_STEPS = 32
SYNTH_POOL = 16
RANDOM_POOL = 2000
INTERPRETER_SPAWNS = 5

#: Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "cli.": ("setup_s, verdict_ms_p50", "corpus-cli"),
    "context.parse_context.": ("verdicts_per_s", "random-batch"),
    "protocol.parse_narration.": ("verdicts_per_s", "random-batch"),
    "protocol.": ("verdicts_per_s", "random-batch; more patterns mean more witness work on synth-chain"),
    "witness.": ("verdict_ms_p50, verdict_ms_p90, verdicts_per_s", "synth-chain"),
    "terms.unify.": ("verdict_ms_p90", "synth-chain"),
    "safefun.f_prime.": ("verdict_ms_p50", "synth-chain, random-batch"),
    "report.": ("verdicts_per_s", "random-batch"),
    "trace.": ("none (tracing overhead)", "every workload"),
}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark cannot run here (no wfcheck source, no corpus)."""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn_until_ready(cmd: list[str], refs: list[float]) -> tuple[float, str]:
    """Start ``cmd``; return the seconds until it prints ``ready`` and the
    rest of its stdout once it has exited. The reference routine is timed
    twice just before the spawn; their mean goes into ``refs``."""
    refs.append((refspeed.ref_s() + refspeed.ref_s()) / 2)
    t0 = clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    with proc:
        line = proc.stdout.readline()
        setup = clock() - t0
        rest = proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} failed with exit code {proc.returncode}")
    return setup, rest


def pin_to_one_cpu() -> None:
    """Run this process and every process it starts on one CPU.

    On the shared VMs this was built on, at any moment one of the two CPUs
    runs Python about 1.6x slower than the other, and which one switches
    every few seconds. Unpinned, a child can land on the other CPU than the
    reference routine timed just before it, and the scaling adds noise
    instead of removing it; pinned, the two are timed on the same CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def interpreter_ms() -> float:
    return statistics.median(
        refspeed.spawn_s(PYTHON, env=child_env(), cwd=ROOT) * 1000.0 for _ in range(INTERPRETER_SPAWNS)
    )


# ---------------------------------------------------------------------------
# In-process workloads (synth-chain, random-batch)

def inprocess(cases: list[gen.Case], seconds: float, trace: bool, out_dir: pathlib.Path) -> dict:
    """Set-up reads only the warm-up case; the job is read after ``ready``."""
    warmup = out_dir / "warmup.json"
    warmup.write_text(json.dumps(cases[0].to_json()), encoding="utf-8")
    job = out_dir / "job.json"
    job.write_text(json.dumps({
        "cases": [c.to_json() for c in cases],
        "seconds": seconds,
        "trace": trace,
        "min_verdicts": max(MIN_VERDICTS, len(cases)),
        "out_dir": str(out_dir),
    }), encoding="utf-8")
    worker = [PYTHON, str(HERE / "worker.py"), str(warmup)]
    setup_refs: list[float] = []
    setups = [spawn_until_ready(worker, setup_refs)[0] for _ in range(SETUP_SPAWNS - 1)]
    setup, rest = spawn_until_ready(worker + [str(job)], setup_refs)
    result = json.loads(rest.strip().splitlines()[-1])
    result["setups"] = setups + [setup]
    result["setup_refs"] = setup_refs
    if trace:
        result["layers"]["cli.interpreter_ms"] = interpreter_ms()
    return result


# ---------------------------------------------------------------------------
# corpus-cli: one fresh interpreter per verdict

def corpus_pairs() -> list[tuple[gen.Case, str]]:
    """Every (case, format) pair of the corpus."""
    if not CORPUS.is_dir():
        raise BenchError(f"no corpus directory at {CORPUS}")
    return [(c, fmt) for c in gen.corpus_cases(CORPUS) for fmt in ("text", "json")]


def corpus_ops(pairs: list, seed: int):
    """Endless run of the pairs; each cycle through all of them is shuffled."""
    rng = random.Random(seed)
    while True:
        cycle = list(pairs)
        rng.shuffle(cycle)
        yield from cycle


class CliRun:
    """Runs CLI subprocesses and judges their output.

    The report digest covers the first output of each (case, format) pair,
    in name order, so it does not depend on the seeded run order.
    """

    def __init__(self):
        from wfcheck import report

        self.report = report
        self.times: list[float] = []
        self.failures: list[str] = []
        self.outputs: dict[tuple[str, str], str] = {}
        self.summaries: list[dict] = []
        self.spans: list[list] = []
        self.import_ms: list[float] = []
        self.from_json_s = 0.0
        self.shapes: list[tuple[int, int, int]] = []

    def one(self, case: gen.Case, fmt: str, traced: bool) -> None:
        stem = CORPUS / case.name
        program = [str(HERE / "cli_traced.py")] if traced else ["-m", "wfcheck"]
        cmd = [PYTHON, *program, "--protocol", f"{stem}.proto", "--context", f"{stem}.ctx",
               "--function", case.variant, "--check", "all", "--format", fmt]
        t0 = clock()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT)
        self.times.append(clock() - t0)
        self.outputs.setdefault((case.name, fmt), proc.stdout)
        record = last_json_line(proc.stderr) if traced else None
        if record is not None:
            self.summaries.append(record["summary"])
            self.import_ms.append(record["import_ms"])
            request, offset = len(self.summaries) - 1, len(self.spans)
            self.spans += [
                [request, name, start, end, parent + offset if parent >= 0 else -1]
                for _, name, start, end, parent in record["spans"]
            ]
        problem = self.judge(case, fmt, proc)
        if problem:
            self.failures.append(problem)

    def judge(self, case: gen.Case, fmt: str, proc) -> str:
        where = f"{case.name} --format {fmt}"
        if proc.returncode not in (0, 2):
            return f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        if proc.returncode != case.expect_exit:
            return f"{where}: exit code {proc.returncode}, expected {case.expect_exit}"
        if fmt == "text":
            text = proc.stdout
        else:
            try:
                t0 = clock()
                back = self.report.report_from_json(proc.stdout)
                self.from_json_s += clock() - t0
            except (ValueError, KeyError, TypeError) as exc:
                return f"{where}: JSON report does not parse: {exc}"
            if self.report.render_json(back) != proc.stdout:
                return f"{where}: JSON report does not round-trip"
            self.shapes.append((len(back.roles), len(back.patterns), len(back.checks)))
            text = self.report.render_text(back)
        if case.expect_verdict not in text:
            return f"{where}: report lacks {case.expect_verdict!r}"
        return ""

    def digest(self) -> str:
        sha = hashlib.sha256()
        for key in sorted(self.outputs):
            sha.update(self.outputs[key].encode())
        return sha.hexdigest()


def last_json_line(stderr: str):
    """The traced CLI's record, or None when it died before writing one
    (``judge`` then counts the failure from the exit code)."""
    lines = stderr.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except ValueError:
        return None
    return record if isinstance(record, dict) and "summary" in record else None


def corpus_cli(seed: int, seconds: float, trace: bool, out_dir: pathlib.Path) -> dict:
    import_probe = [PYTHON, "-c", "import wfcheck; print('ready', flush=True)"]
    setup_refs: list[float] = []
    setups = [spawn_until_ready(import_probe, setup_refs)[0] for _ in range(SETUP_SPAWNS)]
    run = CliRun()
    budget = seconds / 4 if trace else seconds
    pairs = corpus_pairs()
    ops = corpus_ops(pairs, seed)
    minimum = len(pairs) if trace else max(MIN_VERDICTS, len(pairs))
    done: list[tuple[gen.Case, str]] = []
    refs: list[float] = []
    start = clock()
    while len(done) < minimum or clock() - start < budget:
        refs.append(refspeed.spawn_s(PYTHON, env=child_env(), cwd=ROOT))
        done.append(next(ops))
        run.one(*done[-1], traced=False)
    result = {
        "setups": setups,
        "setup_refs": setup_refs,
        "times": run.times,
        "refs": refs,
        "ref_nominal_s": refspeed.NOMINAL_SPAWN_S,
        "attempted": len(run.times),
        "failures": run.failures,
        "digest": run.digest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if trace:
        from tracing import layer_metrics, merge, write_spans

        n = len(done)
        run.from_json_s = 0.0
        run.shapes.clear()
        for op in done:
            run.one(*op, traced=True)
        layers = layer_metrics(merge(run.summaries), n)
        layers["cli.main_ms"] = layers.get("cli.main.ms", 0.0)
        for i, key in enumerate(("protocol.roles", "protocol.patterns", "witness.checks")):
            layers[key] = statistics.mean(s[i] for s in run.shapes) if run.shapes else 0.0
        layers["report.report_from_json.ms"] = run.from_json_s * 1000.0 / n
        layers["cli.import_ms"] = statistics.median(run.import_ms) if run.import_ms else 0.0
        layers["cli.interpreter_ms"] = interpreter_ms()
        layers["trace.overhead_ratio"] = sum(run.times[n:]) / sum(run.times[:n])
        write_spans(out_dir / "spans.tsv.gz", run.spans)
        result["layers"] = layers
        result["attempted"] = len(run.times)
    return result


# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def list_metrics(spec: dict) -> None:
    gated = {m["name"]: m for m in spec["end_to_end"]}
    print("end-to-end metrics, times scaled to reference speed (refspeed.py),")
    print("printed on the 'end_to_end' line of every run;")
    print("those with a bound are the --trace 0 result metrics:")
    for name, (unit, better) in END_TO_END.items():
        gate = f"bound {gated[name]['bound']}" if name in gated else "printed only"
        print(f"  {name:<34} {unit:<6} {better:<7} {gate}")
    print("per-layer metrics (--trace 1), per verdict; should move -> on:")
    for m in spec["per_layer"]:
        prefix = next(p for p in LAYER_MAP if m["name"].startswith(p))
        moves, where = LAYER_MAP[prefix]
        print(f"  {m['name']:<34} {m['unit']:<6} {m['better']:<7} {moves} -> {where}")
    print("workloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:<13} {w['why']}")


#: Every end-to-end figure with its unit and better direction.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "verdict_ms_p50": ("ms", "lower"),
    "verdict_ms_p90": ("ms", "lower"),
    "verdicts_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ratio": ("ratio", "lower"),
}


def end_to_end(result: dict, scaled: bool = True) -> dict:
    """Every end-to-end figure of a run, with its unit.

    Scaled, times are given at reference speed (see ``refspeed``): each
    set-up time by the reference timed just before its spawn, verdict times
    by the mean of the reference runs interleaved with the timed loop
    (for corpus-cli, bare interpreter starts).
    """
    times = result["times"]
    setups = result["setups"]
    loop_scale = 1.0
    if scaled:
        setups = [s * refspeed.NOMINAL_S / r for s, r in zip(setups, result["setup_refs"])]
        nominal = result.get("ref_nominal_s", refspeed.NOMINAL_S)
        loop_scale = nominal / statistics.mean(result["refs"])
    values = {
        "setup_s": statistics.median(setups),
        "verdict_ms_p50": statistics.median(times) * 1000.0 * loop_scale,
        "verdict_ms_p90": statistics.quantiles(times, n=10)[8] * 1000.0 * loop_scale,
        "verdicts_per_s": len(times) / sum(times) / loop_scale,
        "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        "failed_ratio": len(result["failures"]) / result["attempted"],
    }
    return {name: (value, END_TO_END[name][0]) for name, value in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description="wfcheck time-to-verdict benchmark")
    parser.add_argument("--workload", choices=["corpus-cli", "synth-chain", "random-batch"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args()
    spec = load_spec()
    if args.list_metrics:
        list_metrics(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "wfcheck" / "__init__.py").is_file():
        raise BenchError(f"no wfcheck package under {SRC}")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    trace = bool(args.trace)
    out_dir = OUT / f"{args.workload}-{args.seed}-{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workload == "corpus-cli":
        result = corpus_cli(args.seed, args.seconds, trace, out_dir)
    elif args.workload == "synth-chain":
        cases = gen.synth_chain_cases(args.seed, SYNTH_STEPS, SYNTH_POOL)
        result = inprocess(cases, args.seconds, trace, out_dir)
    else:
        cases = gen.random_batch(args.seed, RANDOM_POOL)
        result = inprocess(cases, args.seconds, trace, out_dir)

    attempted = result["attempted"]
    failed = len(result["failures"])
    for problem in result["failures"][:10]:
        print(f"failed: {problem}", file=sys.stderr)
    print(f"samples verdicts={attempted} setup_spawns={len(result['setups'])}")
    print(f"report_sha256 {args.workload} {result['digest']}")
    figures = end_to_end(result)
    if trace:
        # Traced verdicts are slower; of the end-to-end figures only the
        # failed ratio still means what it says.
        print(f"failed_ratio {figures['failed_ratio'][0]}")
        values = {m["name"]: (result["layers"].get(m["name"], 0.0), m["unit"])
                  for m in spec["per_layer"]}
    else:
        print("end_to_end " + ", ".join(f"{k}={v:.6g} {u}" for k, (v, u) in figures.items()))
        wall = end_to_end(result, scaled=False)
        print("wall " + ", ".join(f"{k}={wall[k][0]:.6g} {wall[k][1]}" for k in
                                  ("setup_s", "verdict_ms_p50", "verdict_ms_p90", "verdicts_per_s"))
              + f", reference_ms={statistics.mean(result['refs']) * 1000.0:.6g} ms")
        values = {m["name"]: figures[m["name"]] for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: error: {exc}", file=sys.stderr)
        sys.exit(2)
