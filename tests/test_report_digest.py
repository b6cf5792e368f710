"""Report bytes of the synthetic benchmark workloads, pinned by digest.

The inputs come from the benchmark's seeded generators (``perfbench/gen.py``,
imported read-only). Every case is analyzed with ``--check all`` semantics
and rendered as text and as JSON; the sha256 of all rendered reports, in
case order, must equal the digest recorded before the evaluation memo was
introduced. A speed change that moves a single report byte fails here.
"""

import hashlib

import pytest

from conftest import perfbench_gen
from wfcheck import analyze, parse_context, parse_narration, render_json, render_text
from wfcheck.safefun import Variant

gen = perfbench_gen()


def _digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        ctx = parse_context(case.context)
        narration = parse_narration(case.protocol, ctx)
        report = analyze(narration, ctx, Variant(case.variant), "all")
        for rendered in (render_text(report), render_json(report)):
            h.update(rendered.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize(
    "make, expected",
    [
        (
            lambda: gen.synth_chain_cases(7, 32, 4),
            "a1523f545313363d60b71cf2a07d81c1f3303c08674676a2c7d66794764827c2",
        ),
        (
            lambda: gen.random_batch(7, 300),
            "882565554e56c4252cc962ad48e6a29be44d8b796c578660200cd144e322c90b",
        ),
    ],
    ids=["synth-chain", "random-batch"],
)
def test_synthetic_reports_keep_their_bytes(make, expected):
    assert _digest(make()) == expected
