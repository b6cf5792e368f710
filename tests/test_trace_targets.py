"""The functions the benchmark's span tracer wraps all exist.

``perfbench/tracing.py`` (imported read-only) wraps each ``(module,
attribute)`` of its ``TARGETS`` in ``wfcheck.<module>`` and skips one that
is missing without a word, so a renamed or moved function would make its
per-layer metric read 0. One target is known to be stale:
``report.check_authentication`` no longer exists.
"""

import importlib

from conftest import perfbench_module

KNOWN_STALE = {("report", "check_authentication")}


def test_every_trace_target_but_the_known_stale_one_is_a_function():
    unresolved = {
        (module, attr)
        for module, attr, _span in perfbench_module("tracing").TARGETS
        if not callable(getattr(importlib.import_module(f"wfcheck.{module}"), attr, None))
    }
    assert unresolved == KNOWN_STALE
