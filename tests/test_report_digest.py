"""Report bytes of the synthetic benchmark workloads, pinned by digest.

The inputs come from the benchmark's seeded generators (``perfbench/gen.py``,
imported read-only). Every case is analyzed with ``--check all`` semantics
and rendered as text and as JSON; the sha256 of all rendered reports, in
case order, must equal the recorded digest. The random-batch digest dates
from before the evaluation memo; the synth-chain digest was recorded again
when role variables past the tenth got numbered names (``?X1`` for
``?X_1``), which renamed them in these reports. A speed change that moves
a single report byte fails here.
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
            "04534087a66d6779de8da8f22e47d3b0863c49cdf4c58be6ebc6b06b2d3a6f83",
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
