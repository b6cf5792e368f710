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
    Nonce,
    SecurityLevel,
    SymKey,
    Variable,
    analyze,
    extract_roles,
    load_context,
    load_narration,
)
from wfcheck.terms import format_message

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
        SecurityLevel.of("A", "B"),
        ctx.lattice,
        ctx.decls["kab"],
        ctx.challenge,
        narration.steps[0],
        narration,
        role.steps[0],
        role,
        report.checks[0],
        report.auth,
        report.roles[0],
        report,
    ]


VALUES = _values()

#: Compound terms inside compound terms; each keeps the hash computed when
#: it was built, so a copy must rebuild every one of them.
NESTED = [
    Concat((A, Enc(Concat((NB, Variable("X", 3))), SymKey("kab", copy=1)))),
    Enc(Concat((A, Enc(Enc(NB, SymKey("kas")), SymKey("kab")))), SymKey("kbs")),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value):
    field = value._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize(
    "value",
    VALUES + NESTED,
    ids=[type(v).__name__ for v in VALUES] + [f"nested-{type(v).__name__}" for v in NESTED],
)
def test_copies_are_equal_values_of_the_same_type(value):
    for same in (value._replace(), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(same) is type(value)
        assert same == value and not same != value
        assert hash(same) == hash(value)


#: One atom or variable of each class; each keeps the hash computed when it
#: was built, as compound terms do.
ATOMS = [Identity("A", 1), Nonce("Nb", "i", 2), SymKey("kab", copy=1), Variable("X", 3)]


@pytest.mark.parametrize("value", NESTED + ATOMS, ids=lambda v: type(v).__name__)
def test_a_stored_hash_cannot_be_assigned(value):
    assert value._hash == hash(value)
    with pytest.raises(AttributeError):
        value._hash = 0


@pytest.mark.parametrize("value", NESTED + ATOMS, ids=lambda v: type(v).__name__)
def test_a_term_prints_once_and_no_copy_carries_its_text(value):
    fresh = copy.deepcopy(value)  # rebuilt from its fields, so not printed yet
    unprinted = pickle.dumps(fresh)
    text = format_message(fresh)
    assert format_message(fresh) is text
    assert str(fresh) == text
    with pytest.raises(AttributeError):
        fresh._text = text
    assert pickle.dumps(fresh) == unprinted
    for same in (fresh._replace(), copy.deepcopy(fresh), pickle.loads(unprinted)):
        assert format_message(same) == text


def test_an_unpickled_term_hashes_as_one_built_in_its_own_process():
    # string hashes differ between processes, so a stored hash must not travel;
    # one process per seed reads every kind of term that stores a hash
    src = str(pathlib.Path(wfcheck.__file__).resolve().parent.parent)
    built = (
        "[Enc(Concat((Identity('A'), Enc(Nonce('Nb'), SymKey('kab')))), SymKey('kbs')), "
        "Identity('A', 1), Nonce('Nb', 'i', 2), SymKey('kab', copy=1), Variable('X', 3)]"
    )
    probe = (
        "import pickle, sys; from wfcheck import *; "
        f"pairs = zip(pickle.loads(sys.stdin.buffer.read()), {built}); "
        "print(*[hash(sent) == hash(own) for sent, own in pairs])"
    )
    sent = [Enc(Concat((A, Enc(NB, SymKey("kab")))), SymKey("kbs"))] + ATOMS
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            input=pickle.dumps(sent),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            check=True,
        )
        assert proc.stdout.split() == [b"True"] * len(sent)


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


def test_an_identity_and_a_variable_of_one_name_hash_alike_but_differ():
    # equal stored hashes do not make equal terms: the class check decides
    for copy_index in (None, 1):
        identity, variable = Identity("X", copy_index), Variable("X", copy_index)
        assert hash(identity) == hash(variable)
        assert identity != variable and not identity == variable


def _printed_by_a_fresh_interpreter(probe: str) -> list[str]:
    """The words that ``probe`` prints when a fresh interpreter runs it."""
    # -S: modules that site-packages .pth files load at start-up do not count
    src = str(pathlib.Path(wfcheck.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    return proc.stdout.split()


def _loaded_after_importing_the_cli(modules: list[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``import wfcheck.cli``."""
    return _printed_by_a_fresh_interpreter(
        f"import sys, wfcheck.cli; print(*sorted({modules!r} & sys.modules.keys()))"
    )


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    assert _loaded_after_importing_the_cli(["dataclasses", "inspect"]) == []


#: Modules a text run never needs: only JSON output and input need the codec,
#: only JSON input needs json, and the context digest takes the interpreter's
#: own SHA-256, not hashlib's, which loads OpenSSL.
NOT_FOR_TEXT = ["json", "hashlib", "_hashlib", "wfcheck.codec"]


def _loaded_after_a_cli_run(fmt: str) -> list[str]:
    """The exit code of a corpus run in ``fmt``, then which of ``NOT_FOR_TEXT`` it loaded."""
    args = ["--protocol", str(CORPUS / "woolam_modified.proto"),
            "--context", str(CORPUS / "woolam_modified.ctx"), "--format", fmt, "--out"]
    return _printed_by_a_fresh_interpreter(
        "import os, sys, wfcheck.cli\n"
        f"print(wfcheck.cli.main({args!r} + [os.devnull]), "
        f"*sorted({NOT_FOR_TEXT!r} & sys.modules.keys()))"
    )


def test_importing_the_cli_does_not_load_json():
    assert _loaded_after_importing_the_cli(NOT_FOR_TEXT) == []


def test_a_text_cli_run_loads_neither_the_codec_nor_openssl():
    assert _loaded_after_a_cli_run("text") == ["0"]


def test_a_json_cli_run_writes_without_loading_json():
    # the writer takes json.dumps's C string encoder alone; only reading needs json
    assert _loaded_after_a_cli_run("json") == ["0", "wfcheck.codec"]


def test_one_codec_reads_each_record_type_hints_once():
    # 4 record types and the 6 verdicts two of them derive: one read serves
    # the writer and the reader of each, since typing keeps no cache of them
    probe = (
        "import typing\n"
        "calls, real = [], typing.get_type_hints\n"
        "typing.get_type_hints = lambda *a, **k: calls.append(a[0]) or real(*a, **k)\n"
        "from wfcheck import analyze, load_context, load_narration, render_json, report_from_json\n"
        f"ctx = load_context({str(CORPUS / 'woolam_modified.ctx')!r})\n"
        f"narration = load_narration({str(CORPUS / 'woolam_modified.proto')!r}, ctx)\n"
        "report = analyze(narration, ctx)\n"
        "print(report_from_json(render_json(report)) == report, len(calls))"
    )
    assert _printed_by_a_fresh_interpreter(probe) == ["True", "10"]


def test_a_cli_run_in_text_and_json_loads_only_the_standard_library():
    # the package is stdlib-only: after one run in each format, every module
    # held is the probe itself, wfcheck's or the standard library's; and the
    # flags are read without argparse and the gettext and locale it loads
    args = ["--protocol", str(CORPUS / "woolam_modified.proto"),
            "--context", str(CORPUS / "woolam_modified.ctx"), "--out"]
    probe = (
        "import os, sys, wfcheck.cli\n"
        "for fmt in ('text', 'json'):\n"
        f"    print(wfcheck.cli.main({args!r} + [os.devnull, '--format', fmt]))\n"
        "top = {name.partition('.')[0] for name in sys.modules} - {'__main__', 'wfcheck'}\n"
        "print(*sorted(top - sys.stdlib_module_names))\n"
        "print(*sorted({'argparse', 'gettext', 'locale'} & top))"
    )
    assert _printed_by_a_fresh_interpreter(probe) == ["0", "0"]
