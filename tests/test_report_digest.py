"""Report bytes of the synthetic benchmark workloads, pinned by digest.

The inputs come from the benchmark's seeded generators (``perfbench/gen.py``,
imported read-only). Every case is analyzed with ``--check all`` semantics
and rendered as text and as JSON; the sha256 of all rendered reports, in
case order, must equal the recorded digest. The synth-chain digest was
recorded again when role variables past the tenth got numbered names
(``?X1`` for ``?X_1``), which renamed them in these reports. Both digests
were recorded again when variables took their declared level from the
encryptions they can stand for (``variable_levels``), which changed the
declared level and check line of variable rows, and no verdict. A speed
change that moves a single report byte fails here.
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
            "2f7d2f37b111f1504b1d3512855ceccbc7686a56e2bf37916e959d97b529b15a",
        ),
        (
            lambda: gen.random_batch(7, 300),
            "08e2db3f466e0d66c7531e84d5485edf52735ee680015b44bccf712bff9d3fcc",
        ),
    ],
    ids=["synth-chain", "random-batch"],
)
def test_synthetic_reports_keep_their_bytes(make, expected):
    assert _digest(make()) == expected
