"""In-process closed loop: one client submits an input and waits for its verdict.

Started by ``run.py`` as ``worker.py WARMUP [JOB]``. WARMUP is a JSON file
holding one case; JOB a JSON file with all cases, seconds, the trace flag and
the minimum number of verdicts. The worker imports wfcheck, decides the
warm-up case untimed and prints ``ready``, which ends set-up. Without JOB it
stops there; with JOB it reads the job and runs the timed loop, and its last
stdout line is a JSON result.

Only ``sys`` and ``time`` are imported at module level, so the timed
``import wfcheck`` pays for every module it loads itself; the harness imports
its other modules after it.

One verdict is the public path a library user takes: ``parse_context`` ->
``parse_narration`` -> ``analyze`` -> ``render`` as text and as JSON ->
``report_from_json``. Checking the result against the known answer is not
timed.
"""

from __future__ import annotations

import sys
import time

clock = time.perf_counter


class Analyzer:
    """The library calls of one verdict, looked up at call time so that
    installed trace wrappers are used."""

    def __init__(self):
        from wfcheck import context, protocol, report, safefun

        self.context, self.protocol, self.report = context, protocol, report
        self.Variant = safefun.Variant

    def decide(self, case: dict):
        ctx = self.context.parse_context(case["context"])
        narration = self.protocol.parse_narration(case["protocol"], ctx)
        rep = self.report.analyze(narration, ctx, self.Variant(case["variant"]), "all")
        text = self.report.render(rep, "text")
        js = self.report.render(rep, "json")
        back = self.report.report_from_json(js)
        return rep, text, js, back


def judge(case: dict, outcome) -> str:
    """Empty when the verdict matches the known answer, else the failure."""
    rep, text, _, back = outcome
    if rep.overall_passed != (case["expect_exit"] == 0):
        return f"{case['name']}: overall_passed={rep.overall_passed}, expected exit {case['expect_exit']}"
    if case["expect_verdict"] not in text:
        return f"{case['name']}: text report lacks {case['expect_verdict']!r}"
    if back != rep:
        return f"{case['name']}: JSON report does not round-trip"
    return ""


class Loop:
    """Closed-loop run over a cyclic list of cases.

    The report digest covers the first ``len(cases)`` verdicts, one per
    distinct input, in input order.
    """

    def __init__(self, analyzer: Analyzer, cases: list[dict]):
        import hashlib

        self.analyzer = analyzer
        self.cases = cases
        self.digest = hashlib.sha256()
        self.times: list[float] = []
        self.refs: list[float] = []  # reference routine times, see refspeed
        self.failures: list[str] = []
        self.shapes = [0, 0, 0]  # roles, patterns, checks summed over verdicts

    def one(self, i: int) -> None:
        case = self.cases[i % len(self.cases)]
        t0 = clock()
        try:
            outcome = self.analyzer.decide(case)
        except Exception as exc:  # any exception is a failed operation
            self.times.append(clock() - t0)
            self.failures.append(f"{case['name']}: {type(exc).__name__}: {exc}")
            return
        self.times.append(clock() - t0)
        problem = judge(case, outcome)
        if problem:
            self.failures.append(problem)
        rep, text, js, _ = outcome
        if len(self.times) <= len(self.cases):
            self.digest.update(text.encode())
            self.digest.update(js.encode())
        self.shapes[0] += len(rep.roles)
        self.shapes[1] += len(rep.patterns)
        self.shapes[2] += len(rep.checks)

    def run(self, seconds: float, min_verdicts: int) -> None:
        """Timed loop; the reference routine runs between verdicts."""
        import refspeed

        start = clock()
        i = 0
        since_ref = refspeed.EVERY_S
        while i < min_verdicts or clock() - start < seconds:
            if since_ref >= refspeed.EVERY_S:
                self.refs.append(refspeed.ref_s())
                since_ref = 0.0
            self.one(i)
            since_ref += self.times[-1]
            i += 1

    def replay(self, count: int, tracer) -> None:
        for i in range(count):
            tracer.request = i
            self.one(i)


def cli_probe(cases: list[dict], out_dir, count: int) -> dict:
    """Self time of ``cli.main`` per call, on the first cases, traced."""
    import wfcheck.cli
    from tracing import Tracer

    tracer = Tracer()
    with tracer:
        for i, case in enumerate(cases[:count]):
            ctx_path = out_dir / f"probe{i}.ctx"
            proto_path = out_dir / f"probe{i}.proto"
            ctx_path.write_text(case["context"], encoding="utf-8")
            proto_path.write_text(case["protocol"], encoding="utf-8")
            wfcheck.cli.main([
                "--protocol", str(proto_path), "--context", str(ctx_path),
                "--function", case["variant"], "--check", "all",
                "--out", str(out_dir / f"probe{i}.txt"),
            ])
    summary = tracer.summary()
    calls = summary["calls"].get("cli.main", 0)
    return {"cli.main_ms": summary["self_s"].get("cli.main", 0.0) * 1000.0 / max(calls, 1)}


def main() -> None:
    t0 = clock()
    analyzer = Analyzer()
    import_ms = (clock() - t0) * 1000.0
    import json
    import pathlib

    analyzer.decide(json.loads(pathlib.Path(sys.argv[1]).read_text(encoding="utf-8")))
    print("ready", flush=True)
    if len(sys.argv) < 3:
        return

    import resource

    job = json.loads(pathlib.Path(sys.argv[2]).read_text(encoding="utf-8"))
    cases = job["cases"]
    loop = Loop(analyzer, cases)
    result = {}
    if not job["trace"]:
        loop.run(job["seconds"], job["min_verdicts"])
    else:
        from tracing import Tracer, layer_metrics, write_spans

        # Untraced first, then the same inputs traced: the ratio of the two
        # wall times is the tracing overhead.
        loop.run(job["seconds"] / 4, len(cases))
        untraced = len(loop.times)
        untraced_s = sum(loop.times)
        tracer = Tracer()
        with tracer:
            loop.replay(untraced, tracer)
        traced_s = sum(loop.times[untraced:])
        layers = layer_metrics(tracer.summary(), untraced)
        for key, total in zip(("protocol.roles", "protocol.patterns", "witness.checks"), loop.shapes):
            layers[key] = total / len(loop.times)
        out_dir = pathlib.Path(job["out_dir"])
        layers.update(cli_probe(cases, out_dir, 4))
        layers["cli.import_ms"] = import_ms
        layers["trace.overhead_ratio"] = traced_s / untraced_s
        write_spans(out_dir / "spans.tsv.gz", tracer.spans())
        result["layers"] = layers
    result.update(
        times=loop.times,
        refs=loop.refs,
        attempted=len(loop.times),
        failures=loop.failures,
        digest=loop.digest.hexdigest(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
