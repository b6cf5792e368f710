"""Exact work counts of one traced synth-chain verdict at 16, 32 and 64 steps.

    PYTHONPATH=src python3 perfbench/scaling.py

Each size is traced twice (sound shape, seed 0); the command fails unless
both runs give identical counts. ``scaling_baseline.json`` holds the counts
recorded before any optimisation of the secrecy check. It is committed data,
not rewritten by this command; the comparison prints how many times fewer
``unify`` calls the current code makes.
"""

from __future__ import annotations

import json
import pathlib
import sys

import gen
from tracing import Tracer
from worker import Analyzer

SIZES = (16, 32, 64)
SEED = 0
BASELINE = pathlib.Path(__file__).resolve().parent / "scaling_baseline.json"
COLUMNS = (
    ("patterns", None),
    ("checks", None),
    ("check_step calls", "witness.check_step"),
    ("lower_bound calls", "witness.lower_bound"),
    ("candidate_sources calls", "witness.candidate_sources"),
    ("sources_for_target calls", "witness.sources_for_target"),
    ("unify calls", "terms.unify"),
    ("unify hits", None),
    ("f_prime calls", "safefun.f_prime"),
)


def counts(analyzer: Analyzer, steps: int) -> dict:
    case = gen.synth_chain(SEED, steps, sound=True).to_json()
    tracer = Tracer()
    with tracer:
        rep = analyzer.decide(case)[0]
    calls = tracer.summary()["calls"]
    row = {label: calls.get(span, 0) for label, span in COLUMNS if span}
    row.update(patterns=len(rep.patterns), checks=len(rep.checks), **{"unify hits": tracer.unify_hits})
    return {label: row[label] for label, _ in COLUMNS}


def main() -> int:
    analyzer = Analyzer()
    table = {}
    for steps in SIZES:
        first, second = counts(analyzer, steps), counts(analyzer, steps)
        if first != second:
            print(f"counts differ between two runs at {steps} steps: {first} vs {second}")
            return 1
        table[str(steps)] = first

    print("steps | " + " | ".join(label for label, _ in COLUMNS))
    for steps, row in table.items():
        print(f"{steps:>5} | " + " | ".join(f"{row[label]:,}" for label, _ in COLUMNS))
    base = json.loads(BASELINE.read_text())["rows"]
    for steps, row in table.items():
        was, now = base[steps]["unify calls"], row["unify calls"]
        print(f"unify calls at {steps} steps: baseline {was:,}, now {now:,}, "
              f"{was / now:.2f}x fewer" if now else f"unify calls at {steps} steps: none")
    return 0


if __name__ == "__main__":
    sys.exit(main())
