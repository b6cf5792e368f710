"""Record one point of wfcheck's performance trajectory as a JSON file.

    python3 tools/bench_record.py --out BENCH_<n>.json   # one file per change, committed
    python3 tools/bench_record.py --seconds 1 --passes 1 --out /tmp/bench.json   # smoke run

Run from anywhere; paths are taken from this file's place in the
repository. Two parts, standard library only:

- ``runs``: ``perfbench/run.py --workload W --seed 1 --seconds T --trace 0``
  for each workload, keeping its final JSON line and its ``report_sha256``.
  ``T`` defaults to ``run_seconds`` in BENCHMARK.json.
- ``phases_ms``: the public-API phases of one verdict, timed in this
  process on the benchmark's own generated inputs (``perfbench/gen.py``,
  imported read-only), in ms per verdict, the median over ``--passes``
  passes. Like ``run.py``'s end-to-end times they are scaled to reference
  machine speed (``perfbench/refspeed.py``), so records of different
  commits compare. ``verdict`` is ``run.py``'s path: context, narration,
  ``analyze``, text, JSON write and JSON read; the phases from ``roles``
  to ``auth`` are what ``analyze`` runs.

The file also names the commit, the Python version, the
``PYTHONDONTWRITEBYTECODE`` setting and whether compiled ``__pycache__``
files sat under ``src/`` before and after the runs, since compiling the
package's source is a large share of a command-line verdict.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SEED = 1
WORKLOADS = ("corpus-cli", "synth-chain", "random-batch")
#: The in-process inputs: the synth-chain pool of ``run.py`` cut to 8 cases,
#: and 600 of its random-batch cases.
PHASE_CASES = {"synth-chain": ("synth_chain_cases", (SEED, 32, 8)),
               "random-batch": ("random_batch", (SEED, 600))}
PHASES = ("context", "narration", "roles", "patterns", "secrecy", "auth", "analyze",
          "text", "json_write", "json_read", "verdict")


def src_pycache() -> bool:
    return any(SRC.rglob("__pycache__"))


def bench_run(workload: str, seconds: float) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[2] for line in lines if line.startswith(f"report_sha256 {workload} ")]
    return {"seed": SEED, "seconds": seconds, "report_sha256": digests[0],
            "result": json.loads(lines[-1])}


def perfbench_module(stem: str):
    """``perfbench/<stem>.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", ROOT / "perfbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def phase_times(cases, passes: int, refspeed) -> dict:
    """Median over passes of each phase's mean ms per verdict, after one
    untimed pass that loads what the first verdicts load lazily. As in
    ``run.py``'s loop, the reference routine runs once per
    ``refspeed.EVERY_S`` of verdict time and scales the verdicts after it."""
    import wfcheck as w

    clock = time.perf_counter
    per_pass = []
    since_ref = refspeed.EVERY_S
    for _ in range(passes + 1):
        spent = dict.fromkeys(PHASES, 0.0)
        for case in cases:
            if since_ref >= refspeed.EVERY_S:
                scale, since_ref = refspeed.NOMINAL_S / refspeed.ref_s(), 0.0
            variant = w.Variant(case.variant)
            stamps = [clock()]
            ctx = w.parse_context(case.context)
            stamps.append(clock())
            narration = w.parse_narration(case.protocol, ctx)
            stamps.append(clock())
            roles = w.extract_roles(narration, ctx)
            stamps.append(clock())
            patterns = w.encryption_patterns(roles)
            stamps.append(clock())
            w.check_secrecy(roles, patterns, ctx, variant)
            stamps.append(clock())
            if ctx.challenge is not None:
                w.challenge_check(roles, ctx, variant, ctx.challenge)
            stamps.append(clock())
            report = w.analyze(narration, ctx, variant, "all")
            stamps.append(clock())
            w.render_text(report)
            stamps.append(clock())
            js = w.render_json(report)
            stamps.append(clock())
            w.report_from_json(js)
            stamps.append(clock())
            for name, start, end in zip(PHASES, stamps, stamps[1:]):
                spent[name] += (end - start) * scale
            spent["verdict"] += (stamps[-1] - stamps[6] + stamps[2] - stamps[0]) * scale
            since_ref += stamps[-1] - stamps[0]
        per_pass.append({k: v * 1000.0 / len(cases) for k, v in spent.items()})
    return {k: round(statistics.median(p[k] for p in per_pass[1:]), 4) for k in PHASES}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="record wfcheck's benchmark runs and phase times")
    parser.add_argument("--out", required=True, help="the JSON file to write, such as BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args()

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    record = {
        "commit": commit.stdout.strip() or None,
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "src_pycache_before": src_pycache(),
        "runs": {workload: bench_run(workload, args.seconds) for workload in WORKLOADS},
    }
    sys.path.insert(0, str(SRC))
    gen, refspeed = perfbench_module("gen"), perfbench_module("refspeed")
    if hasattr(os, "sched_setaffinity"):  # one CPU, as run.py times its verdicts
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    record["phases_ms"] = {
        workload: {"cases": f"{fn}{args_}", "passes": args.passes,
                   "ms_per_verdict": phase_times(getattr(gen, fn)(*args_), args.passes, refspeed)}
        for workload, (fn, args_) in PHASE_CASES.items()
    }
    record["src_pycache_after"] = src_pycache()
    pathlib.Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
