"""The JSON codec against the encoder it replaced, and its reader's refusals.

``render_json`` writes a report without building a dict tree first, and
``report_from_json`` reads it back, through one codec per declared type and
indent: its writer and reader side by side, built from one read of the type
hints, the verdicts a record derives typed by their properties' return
annotations. The reference law kept here is the old two-step path:
``_to_json`` turns the report into JSON data, dispatching on each value's
type, and ``json.dumps(..., indent=2, ensure_ascii=False)`` indents it. The
writer must give the same bytes on every report, and the reader must refuse,
naming the path, every document that the writer would not give.
"""

import dataclasses
import json
import re

import pytest

from conftest import CORPUS, perfbench_gen
from wfcheck import (
    AnalysisReport,
    AuthCheck,
    SecurityLevel,
    analyze,
    load_context,
    load_narration,
    parse_context,
    parse_narration,
    render_json,
    render_text,
    report_from_json,
)
from wfcheck.report import SCHEMA_VERSION
from wfcheck.safefun import Variant

gen = perfbench_gen()


# the verdicts a record derives from its fields, written after them
DERIVED = {
    AuthCheck: ("claimant_present", "above_bottom", "passed"),
    AnalysisReport: ("secrecy_passed", "auth_passed", "overall"),
}


def _to_json(value):
    """JSON data of a report value: records become objects, fields first, then
    the verdicts derived from them."""
    if isinstance(value, (str, int, type(None))):
        return value
    if isinstance(value, SecurityLevel):
        if value.is_bottom:
            return {"kind": "bottom"}
        if value.is_top:
            return {"kind": "top"}
        return {"kind": "set", "members": list(value.members())}
    if hasattr(value, "_fields"):  # a record, which is also a tuple
        names = value._fields + DERIVED.get(type(value), ())
        return {name: _to_json(getattr(value, name)) for name in names}
    return [_to_json(v) for v in value]


def _reference(report: AnalysisReport) -> str:
    return json.dumps(_to_json(report), indent=2, ensure_ascii=False) + "\n"


def _assert_law(report: AnalysisReport) -> None:
    assert render_json(report) == _reference(report)


@pytest.mark.parametrize("check", ["all", "secrecy", "auth"])
@pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", ["woolam_modified", "woolam_original"])
def test_corpus_reports_match_the_reference(name, variant, check):
    ctx = load_context(CORPUS / f"{name}.ctx")
    narration = load_narration(CORPUS / f"{name}.proto", ctx)
    report = analyze(narration, ctx, variant, check)
    _assert_law(report)
    assert report_from_json(render_json(report)) == report


def _corpus_doc(check="all") -> dict:
    ctx = load_context(CORPUS / "woolam_modified.ctx")
    narration = load_narration(CORPUS / "woolam_modified.proto", ctx)
    return json.loads(render_json(analyze(narration, ctx, Variant.MAX, check)))


#: the value ``_with`` writes as an explicit ``null``
NULL = object()


def _with(path, value, text=None):
    """The document ``text`` (by default the corpus one) with the value at
    ``path`` replaced, removed if ``None``, or set to null if ``NULL``."""
    doc = json.loads(text) if text else _corpus_doc()
    *outer, last = path
    node = doc
    for key in outer:
        node = node[key]
    if value is None:
        del node[last]
    else:
        node[last] = None if value is NULL else value
    return json.dumps(doc)


def _repeating(key, value, text=None):
    """The document ``text`` (by default the corpus one) with ``value`` under
    ``key`` written again, just before the first ``key`` of the document."""
    text = text or json.dumps(_corpus_doc())
    return text.replace(f'"{key}": ', f'"{key}": {json.dumps(value)}, "{key}": ', 1)


@pytest.mark.parametrize("text, message", [
    ('{"version": 1}', "protocol is missing"),
    ("[1]", "the document must be an object, not an array"),
    (
        json.dumps({**_corpus_doc(), "protocol": 3, "secrecy_passed": "no"}),
        "protocol must be a string, not an integer (3)",
    ),
    (_with(["checks", 0, "passed"], 1), "checks[0].passed must be a boolean, not an integer (1)"),
    (_with(["auth", "step"], True), "auth.step must be an integer, not a boolean (True)"),
    (_with(["roles"], {}), "roles must be an array, not an object"),
    (_with(["roles", 1, "steps"], None), "roles[1].steps is missing"),
    (_with(["checks", 2, "declared", "kind"], None), "checks[2].declared.kind is missing"),
    (
        _with(["checks", 2, "declared", "kind"], "all"),
        'checks[2].declared.kind must be "bottom", "top" or "set", not a string (\'all\')',
    ),
    (
        _with(["auth", "level", "members"], ["A", 2]),
        "auth.level.members[1] must be a string, not an integer (2)",
    ),
    (_with(["variant"], "zzz"), 'variant must be "max", "ek" or "n", not a string (\'zzz\')'),
    # an array of strings is accepted after one test; the item loop names the bad item
    (
        _with(["checks", 0, "sources"], ["{A}k via {}", 3]),
        "checks[0].sources[1] must be a string, not an integer (3)",
    ),
    (_with(["roles", 0, "steps", 0], 3), "roles[0].steps[0] must be a string, not an integer (3)"),
    (_with(["patterns", 0], 3), "patterns[0] must be a string, not an integer (3)"),
    (_repeating("protocol", "X"), "protocol is repeated"),
    (_repeating("role", "A.1"), "checks[0].role is repeated"),
    (_repeating("kind", "top"), "checks[0].received_bound.kind is repeated"),
    (_repeating("claimant", "A"), "auth.claimant is repeated"),
    # an object's reader counts its pairs only once its fields are read
    (
        _repeating("role", "A.1", _with(["checks", 0, "step"], 3)),
        "checks[0].step must be a string, not an integer (3)",
    ),
    ('{"version": 2, "version": 1}', "protocol is missing"),
    (
        json.dumps(_corpus_doc()).replace('"WooLamMod"', '{"a": 1, "a": 2}', 1),
        "protocol must be a string, not an object",
    ),
    (_repeating("zzz", 2, _with(["zzz"], 1)), "zzz must be absent, not an integer (2)"),
], ids=[
    "version-only", "array", "protocol-and-secrecy", "check-passed",
    "step-bool", "roles-object", "steps-missing", "kind-missing", "kind-unknown", "member-int",
    "variant-unknown", "source-int", "role-step-int", "pattern-int",
    "repeated-protocol", "repeated-check-role", "repeated-level-kind", "repeated-claimant",
    "repeated-role-bad-step", "repeated-version", "repeated-key-for-a-string",
    "repeated-unknown-key",
])
def test_malformed_reports_are_refused_naming_the_field(text, message):
    with pytest.raises(ValueError) as err:
        report_from_json(text)
    assert str(err.value) == f"malformed report: {message}"


@pytest.mark.parametrize("text, message", [
    (
        # forged along with the verdicts that follow from it: only the step rule catches it
        _with(["overall"], "no-decision",
              _with(["secrecy_passed"], False, _with(["checks", 0, "passed"], False))),
        "checks[0].passed must be true, not a boolean (False)",
    ),
    (_with(["secrecy_passed"], False), "secrecy_passed must be true, not a boolean (False)"),
    (_with(["auth_passed"], False), "auth_passed must be true, not a boolean (False)"),
    (_with(["auth_passed"], NULL), "auth_passed must be true, not null"),
    (
        _with(["auth_passed"], False, json.dumps(_corpus_doc("secrecy"))),
        "auth_passed must be null, not a boolean (False)",
    ),
    (_with(["overall"], "no-decision"), "overall must be \"pass\", not a string ('no-decision')"),
    (_with(["overall"], None), "overall is missing"),
    (
        _with(["auth", "claimant_present"], False),
        "auth.claimant_present must be true, not a boolean (False)",
    ),
    (
        _with(["auth", "above_bottom"], False),
        "auth.above_bottom must be true, not a boolean (False)",
    ),
    (_with(["auth", "passed"], False), "auth.passed must be true, not a boolean (False)"),
    (
        # every principal: the writer writes this level as bottom
        _with(["auth", "level"], {"kind": "set", "members": ["A", "B", "I", "S"]}),
        "auth.level.members must be a proper subset of the principals, not an array",
    ),
    (
        _with(["checks", 1, "declared"], {"kind": "set", "members": ["A", "Z"]}),
        "checks[1].declared.members must be a proper subset of the principals, not an array",
    ),
    (_with(["zzz"], 1), "zzz must be absent, not an integer (1)"),
    (_with(["checks", 0, "sourcez"], []), "checks[0].sourcez must be absent, not an array"),
    (_with(["checks", 0, "[1]"], 1), "checks[0].[1] must be absent, not an integer (1)"),
    (
        _with(["checks", 0, "declared", "members"], ["A"]),
        "checks[0].declared.members must be absent, not an array",
    ),
    (
        _with(["checks", 0, "received_bound", "members"], []),
        "checks[0].received_bound.members must be absent, not an array",
    ),
    (
        _with(["checks", 1, "lower_bound", "members"], ["B", "A", "S"]),
        "checks[1].lower_bound.members must be one or more distinct names in sorted order, "
        "not an array",
    ),
    (
        _with(["checks", 1, "lower_bound", "members"], ["A", "B", "B", "S"]),
        "checks[1].lower_bound.members must be one or more distinct names in sorted order, "
        "not an array",
    ),
    (
        # the writer writes the empty set as top
        _with(["checks", 1, "lower_bound", "members"], []),
        "checks[1].lower_bound.members must be one or more distinct names in sorted order, "
        "not an array",
    ),
], ids=[
    "step-verdict", "secrecy-verdict", "auth-verdict", "auth-verdict-null",
    "secrecy-only-auth-verdict", "overall", "overall-missing",
    "claimant-present", "above-bottom", "auth-passed", "universe-level", "stray-member",
    "unknown-key", "unknown-check-key", "index-like-key", "bottom-with-members", "top-with-members",
    "unsorted-members", "repeated-members", "empty-members",
])
def test_reading_refuses_verdicts_and_levels_the_writer_never_writes(text, message):
    with pytest.raises(ValueError) as err:
        report_from_json(text)
    assert str(err.value) == f"malformed report: {message}"


@pytest.mark.parametrize("text, version", [
    ('{"version": 2}', 2),
    ('{"version": 1, "version": 2}', 2),
    ('{"protocol": "P"}', None),
])
def test_other_versions_are_refused_before_reading(text, version):
    with pytest.raises(ValueError) as err:
        report_from_json(text)
    assert str(err.value) == f"unsupported report version {version!r}"


def _unclaimed(doc_text):
    """The document with the verdicts a claimant outside every level derives."""
    for path, value in (
        (["auth", "claimant_present"], False), (["auth", "passed"], False),
        (["auth_passed"], False), (["overall"], "no-decision"),
    ):
        doc_text = _with(path, value, doc_text)
    return doc_text


@pytest.mark.parametrize("text, message", [
    (
        _unclaimed(_with(["auth", "claimant"], "Z")),
        "auth.claimant must be one of the principals, not a string ('Z')",
    ),
    (
        _with(["auth", "verifier"], "Z"),
        "auth.verifier must be one of the principals, not a string ('Z')",
    ),
    (
        _with(["principals"], ["A", "B", "S", "I", "A"]),
        "principals must be distinct names, not an array",
    ),
    (
        _with(["principals"], ["A", "B", "S"]),
        "principals must be names including the intruder 'I', not an array",
    ),
], ids=["stray-claimant", "stray-verifier", "repeated-principal", "no-intruder"])
def test_reading_refuses_principals_the_context_never_declares(text, message):
    with pytest.raises(ValueError) as err:
        report_from_json(text)
    assert str(err.value) == f"malformed report: {message}"


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"a": ' * 100_000,
    # the corpus report with its protocol name replaced by arrays nested 5,000 deep
    json.dumps(_corpus_doc()).replace('"WooLamMod"', "[" * 5_000 + "]" * 5_000, 1),
], ids=["open-brackets", "open-objects", "deep-protocol"])
def test_deeply_nested_documents_are_malformed_reports(text):
    with pytest.raises(ValueError) as err:
        report_from_json(text)
    assert str(err.value) == "malformed report: nested too deeply to read"


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen.random_batch(3, 200),
        lambda: gen.random_batch(11, 200),
        lambda: gen.synth_chain_cases(5, 32, 4),
    ],
    ids=["random-batch-3", "random-batch-11", "synth-chain-5"],
)
def test_generated_reports_match_the_reference(make):
    for case in make():
        ctx = parse_context(case.context)
        narration = parse_narration(case.protocol, ctx)
        for check in ("all", "secrecy"):
            _assert_law(analyze(narration, ctx, Variant(case.variant), check))


def test_escapes_and_empty_fields_match_the_reference():
    odd = 'q"b\\n\nc\x01e ε ⊥\x7f '
    report = AnalysisReport(
        version=SCHEMA_VERSION,
        protocol=odd,
        variant="max",
        context_digest=odd[::-1],
        principals=("A", "I"),
        roles=(),
        patterns=(),
        checks=(),
        auth=None,
    )
    _assert_law(report)
    assert report_from_json(render_json(report)) == report


# -- memo scope ---------------------------------------------------------------
# a call keeps each distinct level's text, and each list of sources, by value
# and for that call only

def _reports(cases, check="all"):
    for case in cases:
        ctx = parse_context(case.context)
        yield analyze(parse_narration(case.protocol, ctx), ctx, Variant(case.variant), check)


def _unshared(report: AnalysisReport) -> AnalysisReport:
    """The report with every check's levels and sources equal but not shared."""
    def copy(level):
        return SecurityLevel(None if level.is_bottom else frozenset(set(level.authorized)))

    checks = tuple(
        c._replace(
            received_bound=copy(c.received_bound), declared=copy(c.declared),
            lower_bound=copy(c.lower_bound), sources=tuple(list(c.sources)),
        )
        for c in report.checks
    )
    return report._replace(checks=checks)


def test_equal_values_render_alike_whether_shared_or_not():
    # the analysis hands a send's checks one tuple of sources, and the reader
    # one level per member list; copies of them must print and read alike
    shared = 0
    for report in _reports(gen.synth_chain_cases(1, 32, 2) + gen.random_batch(1, 50)):
        checks = report.checks
        shared += sum(a.sources is b.sources for a, b in zip(checks, checks[1:]) if a.sources)
        unshared = _unshared(report)
        assert unshared == report
        assert render_text(unshared) == render_text(report)
        assert render_json(unshared) == render_json(report) == _reference(report)
        assert render_text(report_from_json(render_json(unshared))) == render_text(report)
    assert shared > 0


def test_an_earlier_report_changes_no_later_one():
    # each golden report, rendered and read after other reports whose levels,
    # principals and sources overlap and differ, keeps its golden bytes
    earlier = list(_reports(gen.synth_chain_cases(3, 16, 3) + gen.random_batch(3, 30)))
    for golden in sorted((CORPUS / "expected").glob("*.json")):
        text = golden.read_text(encoding="utf-8")
        for report in earlier:
            report_from_json(render_json(report))
            render_text(report)
            back = report_from_json(text)
            assert render_json(back) == text, golden.name
            assert render_text(back) == golden.with_suffix(".txt").read_text(encoding="utf-8")


def test_no_module_container_grows_over_many_reports():
    from wfcheck import report as module

    def sizes():
        out = {}
        for name, value in vars(module).items():
            if isinstance(value, (dict, list, set, frozenset, tuple)):
                out[name] = len(value)
            elif hasattr(value, "cache_info"):
                out[name] = value.cache_info().currsize
        return out

    # each cycle renames the principals but the intruder apart, so a memo
    # that outlived its call would meet new levels and sources every cycle
    def renamed(text, cycle):
        return re.sub(r"\b([A-HJ-Z])\b", rf"\g<1>x{cycle}", text)

    cases = [
        dataclasses.replace(
            case, context=renamed(case.context, i), protocol=renamed(case.protocol, i)
        )
        for i, case in enumerate(gen.random_batch(1, 1000))
    ]
    for report in _reports(cases[:1]):  # the first call builds the codec
        report_from_json(render_json(report))
    before = sizes()
    assert "_codec" in before
    for report in _reports(cases):
        back = report_from_json(render_json(report))
        assert back == report and render_text(back) == render_text(report)
    assert report.principals[0].endswith("x999")
    assert sizes() == before
