"""Terms and records are immutable values compared by type and fields.

Terms are slotted classes and records are ``NamedTuple``s, so importing the
package generates no code. These tests pin the value semantics both keep.
"""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import wfcheck
from wfcheck import (
    Concat,
    Enc,
    Identity,
    NarrationStep,
    Nonce,
    Selection,
    SecurityLevel,
    SymKey,
    Variable,
    analyze,
    extract_roles,
    load_context,
    load_narration,
)
from wfcheck.terms import tokenize

from conftest import CORPUS

A, NB = Identity("A"), Nonce("Nb")


def _values():
    """One value of every term and record type, most taken from a real analysis."""
    ctx = load_context(CORPUS / "woolam_modified.ctx")
    narration = load_narration(CORPUS / "woolam_modified.proto", ctx)
    role = extract_roles(narration, ctx)[0]
    report = analyze(narration, ctx, check="all")
    return [
        Identity("A", 1),
        Nonce("Nb", "i", 2),
        SymKey("kab", copy=1),
        Variable("X", 3),
        Concat((A, NB)),
        Enc(NB, SymKey("kab")),
        tokenize("1. A -> B : A")[0],
        SecurityLevel.of("A", "B"),
        ctx.lattice,
        ctx.decls["kab"],
        ctx.challenge,
        narration.steps[0],
        narration,
        role.steps[0],
        role,
        Selection(frozenset({A})),
        report.checks[0],
        report.auth,
        report.roles[0],
        report,
    ]


VALUES = _values()


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_copies_are_equal_values_of_the_same_type(value):
    for same in (value._replace(), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(same) is type(value)
        assert same == value and not same != value
        assert hash(same) == hash(value)


def test_replace_changes_only_the_named_field():
    assert NB._replace(session="i") == Nonce("Nb", session="i")
    assert Enc(NB, SymKey("k"))._replace(key=SymKey("j")) == Enc(NB, SymKey("j"))
    with pytest.raises(TypeError):
        A._replace(session="i")


@pytest.mark.parametrize(
    "left, right",
    [
        (Identity("X"), Variable("X")),
        (Identity("X", 1), Variable("X", 1)),
        (Nonce("k"), SymKey("k")),
    ],
)
def test_terms_of_different_kinds_are_never_equal(left, right):
    # unification binds by kind, so one dict must keep both as keys
    assert left != right and not left == right
    assert len({left: 1, right: 2}) == 2


def test_the_line_of_a_step_is_not_part_of_its_value():
    step = NarrationStep(1, "A", "B", A, line=3)
    moved = step._replace(line=13)
    assert step == moved and not step != moved and hash(step) == hash(moved)
    assert step != step._replace(index=2)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -S: modules that site-packages .pth files load at start-up do not count
    src = str(pathlib.Path(wfcheck.__file__).resolve().parent.parent)
    probe = "import sys, wfcheck.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert proc.stdout.strip() == "[]"
