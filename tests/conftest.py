import functools
import importlib.util
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

from wfcheck import load_context, load_narration

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = REPO_ROOT / "corpus"


@functools.cache
def perfbench_module(stem):
    """The module ``perfbench/<stem>.py``, read-only, as ``perfbench_<stem>``."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", REPO_ROOT / "perfbench" / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def perfbench_gen():
    """The benchmark's seeded input generators, ``perfbench/gen.py``."""
    return perfbench_module("gen")


@pytest.fixture(scope="session")
def woolam_mod():
    ctx = load_context(CORPUS / "woolam_modified.ctx")
    narr = load_narration(CORPUS / "woolam_modified.proto", ctx)
    return narr, ctx


@pytest.fixture(scope="session")
def woolam_orig():
    ctx = load_context(CORPUS / "woolam_original.ctx")
    narr = load_narration(CORPUS / "woolam_original.proto", ctx)
    return narr, ctx
