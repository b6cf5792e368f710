"""Span tracing of wfcheck's public functions, installed from outside.

``Tracer.install`` replaces each function in ``TARGETS`` by a timing wrapper
in the module where its callers look it up, so the package itself is never
edited. Spans (request, name, start, end, parent) stay in memory; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array

#: (module of the caller's lookup, attribute, span name). A function appears
#: once per module that looks it up; both entries share the span name.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "analyze", "report.analyze"),
    ("context", "parse_context", "context.parse_context"),
    ("protocol", "parse_narration", "protocol.parse_narration"),
    ("report", "analyze", "report.analyze"),
    ("report", "analyze_narration", "witness.analyze_narration"),
    ("report", "check_secrecy", "witness.check_secrecy"),
    ("report", "check_authentication", "witness.check_authentication"),
    ("report", "render_text", "report.render_text"),
    ("report", "render_json", "report.render_json"),
    ("report", "report_from_json", "report.report_from_json"),
    ("witness", "extract_roles", "protocol.extract_roles"),
    ("witness", "generated_messages", "protocol.generated_messages"),
    ("witness", "encryption_patterns", "protocol.encryption_patterns"),
    ("witness", "check_secrecy", "witness.check_secrecy"),
    ("witness", "check_step", "witness.check_step"),
    ("witness", "challenge_check", "witness.challenge_check"),
    ("witness", "lower_bound", "witness.lower_bound"),
    ("witness", "candidate_sources", "witness.candidate_sources"),
    ("witness", "sources_for_target", "witness.sources_for_target"),
    ("witness", "f_prime", "safefun.f_prime"),
    ("witness", "unify", "terms.unify"),
)

UNIFY = "terms.unify"
F_PRIME = "safefun.f_prime"
CHECK_STEP = "witness.check_step"


class Tracer:
    """Records one span per call of every installed wrapper."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.request = 0
        self.req = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.unify_hits = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span: str, fn):
        nid = self._name_id(span)
        count_hits = span == UNIFY
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.req.append(self.request)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count_hits and result is not None:
                self.unify_hits += 1
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists; a removed function is skipped."""
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(f"wfcheck.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Self time and calls per span name; sums of summaries are valid."""
        self_s = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                self_s[p] -= self.end[i] - self.start[i]
        by_name: dict[str, list] = {name: [0.0, 0] for name in self.names}
        upper_s = 0.0
        f_prime_id = self._ids.get(F_PRIME)
        check_step_id = self._ids.get(CHECK_STEP)
        for i, nid in enumerate(self.name):
            entry = by_name[self.names[nid]]
            entry[0] += self_s[i]
            entry[1] += 1
            p = self.parent[i]
            if nid == f_prime_id and p >= 0 and self.name[p] == check_step_id:
                upper_s += self_s[i]
        return {
            "self_s": {n: v[0] for n, v in by_name.items()},
            "calls": {n: v[1] for n, v in by_name.items()},
            "upper_bound_s": upper_s,
            "unify_hits": self.unify_hits,
        }

    def spans(self) -> list[list]:
        """Every span as [request, name, start, end, parent index]."""
        return [
            [self.req[i], self.names[self.name[i]], self.start[i], self.end[i], self.parent[i]]
            for i in range(len(self.start))
        ]


def merge(summaries) -> dict:
    """Add up summaries from several tracers (one per CLI process)."""
    total = {"self_s": {}, "calls": {}, "upper_bound_s": 0.0, "unify_hits": 0}
    for s in summaries:
        for key in ("self_s", "calls"):
            for name, value in s[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["upper_bound_s"] += s["upper_bound_s"]
        total["unify_hits"] += s["unify_hits"]
    return total


def layer_metrics(summary: dict, verdicts: int) -> dict:
    """Per-verdict self time (``<span>.ms``) and calls (``<span>.calls``).

    A span that never ran, for instance because a later version removed
    the function, reads zero.
    """
    out = {}
    for name, secs in summary["self_s"].items():
        out[f"{name}.ms"] = secs * 1000.0 / verdicts
    for name, calls in summary["calls"].items():
        out[f"{name}.calls"] = calls / verdicts
    out["witness.upper_bound.ms"] = summary["upper_bound_s"] * 1000.0 / verdicts
    unify_calls = summary["calls"].get(UNIFY, 0)
    out["terms.unify.hit_ratio"] = summary["unify_hits"] / unify_calls if unify_calls else 0.0
    return out


def write_spans(path, spans) -> None:
    """Gzipped tab-separated spans; parents are row indices (0 = first span)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("request\tname\tstart\tend\tparent\n")
        for row in spans:
            fh.write("\t".join(map(str, row)) + "\n")

