"""Narration parsing, role extraction and the encryption pattern set."""

import collections
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcheck import (
    Direction,
    Identity,
    Narration,
    NarrationStep,
    Nonce,
    ParseError,
    SymKey,
    UndeclaredAtom,
    Variable,
    analyze,
    apply,
    canonical_form,
    encryption_patterns,
    extract_roles,
    format_message,
    parse_context,
    parse_narration,
    render,
)
from wfcheck.protocol import MAX_NESTING

from conftest import CORPUS, CORPUS_STEMS, perfbench_gen
from messages import (
    assert_only_pattern_leaves_are_renamed,
    atoms_of,
    generated_messages,
    reference_patterns,
    strip_sessions,
)
from narration_reference import reference_parse_narration
from test_fuzz import STEMS, TEXTS, TOKEN_RE, _mutate_lines, _mutate_tokens
from test_properties import protocol_cases


def role_map(roles):
    return {r.label: r for r in roles}


def test_parse_narration_steps(woolam_mod):
    narr, _ = woolam_mod
    assert narr.name == "WooLamMod"
    assert [s.index for s in narr.steps] == [1, 2, 3, 4, 5]
    assert (narr.steps[2].sender, narr.steps[2].receiver) == ("A", "B")
    assert format_message(narr.steps[3].payload) == "{A.Nb.{B.kab}kas}kbs"


def test_parse_rejects_empty_input(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("", ctx)
    # text that stops mid-declaration is reported at its last line
    for text, line in [("protocol", 1), ("protocol P\n1. A -> B :", 2)]:
        with pytest.raises(ParseError) as err:
            parse_narration(text, ctx)
        assert str(err.value) == f"line {line}: unexpected end of input"


@pytest.mark.parametrize("name", ["Woo_Lam", "NS^v2"])
def test_the_protocol_name_may_hold_underscores_and_carets(name, woolam_mod):
    _, ctx = woolam_mod
    assert parse_narration(f"protocol {name}\n1. A -> B : A\n", ctx).name == name


def test_parse_rejects_undeclared_atom(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(UndeclaredAtom) as err:
        parse_narration("protocol P\n1. A -> B : {A}kxy\n", ctx)
    assert (err.value.line, err.value.column) == (2, 16)


def nested_narration(depth):
    return "protocol Deep\n1. A -> B : " + "{" * depth + "A" + "}kab" * depth + "\n"


def test_nesting_up_to_the_limit_is_analyzed():
    ctx = parse_context("principals A, B, I\nkey kab shared(A,B)\n")
    report = analyze(parse_narration(nested_narration(MAX_NESTING), ctx), ctx)
    assert report.overall_passed
    assert render(report, "text") and render(report, "json")


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_nesting_beyond_the_limit_is_a_parse_error(depth):
    ctx = parse_context("principals A, B, I\nkey kab shared(A,B)\n")
    with pytest.raises(ParseError) as err:
        parse_narration(nested_narration(depth), ctx)
    # reported at the first brace past the limit
    assert (err.value.line, err.value.column) == (2, 13 + MAX_NESTING)
    assert f"deeper than {MAX_NESTING}" in str(err.value)


def test_parse_rejects_non_consecutive_steps(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("protocol P\n2. A -> B : A\n", ctx)


# The diagnostics of the narration grammar, each at the word at fault (or at
# the last word's line, when the text ends too early)
@pytest.mark.parametrize("text, message, line, column", [
    ("protocol P\n1. A B : A\n", "expected 'arrow', found 'B'", 2, 6),
    ("protocol P\n1. A -> B A\n", "expected ':', found 'A'", 2, 11),
    ("protocol P\nA -> B : A\n", "expected 'num', found 'A'", 2, 1),
    ("protocol P\n1 A -> B : A\n", "expected '.', found 'A'", 2, 3),
    ("protocol P\n1. A -> B : }\n", "expected a message term, found '}'", 2, 13),
    ("protocol P\n1. A -> B : A..B\n", "expected a message term, found '.'", 2, 15),
    ("1. A -> B : A\n", "narration must start with 'protocol <name>'", 1, 1),
    ("# a comment\n  Protocol P\n", "narration must start with 'protocol <name>'", 2, 3),
    ("protocol P\n1. A -> C : A\n", "undeclared principal 'C'", 2, 9),
    ("protocol P\n1. A -> B : A\n3. B -> A : Nb\n",
     "step numbers must be consecutive from 1; found 3", 3, 1),
    ("protocol P\n1. A -> B : A\n 01. B -> A : Nb\n",
     "step numbers must be consecutive from 1; found 1", 3, 2),
    ("", "empty protocol text", None, None),
    ("# nothing but a comment\n \t\n", "empty protocol text", None, None),
    ("protocol P\n1. A -> B : {A.\n  Nb\n", "unexpected end of input", 3, None),
    ("protocol P\n1. A -> B : {A.\n  Nb}  # no key\n", "unexpected end of input", 3, None),
], ids=[
    "arrow", "colon", "num", "dot", "term", "empty-term", "head", "head-after-comment",
    "principal", "step-gap", "step-repeat", "empty", "comment-only", "end-in-body", "end-at-key",
])
def test_narration_diagnostics(text, message, line, column, woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError) as err:
        parse_narration(text, ctx)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == str(ParseError(message, line, column))


def test_a_step_number_too_long_for_int_is_a_parse_error(woolam_mod):
    # int() refuses more than 4300 digits on Python 3.11 and later; the parser
    # refuses them itself, with the same message on every version
    _, ctx = woolam_mod
    assert parse_narration("protocol P\n" + "0" * 4299 + "1. A -> B : A\n", ctx).steps
    text = "protocol P\n  " + "9" * 5000 + ". A -> B : A\n"
    with pytest.raises(ParseError) as err:
        parse_narration(text, ctx)
    assert str(err.value) == "line 2, column 3: step number has more than 4300 digits"
    # the one input the token-stream reference reads otherwise: its int() fails
    if hasattr(sys, "get_int_max_str_digits"):
        with pytest.raises(ValueError, match="4300"):
            reference_parse_narration(text, ctx)


# characters that some places of a narration accept and others refuse
EDIT_CHARS = ("\n", " ", "x", "_", "^", "@", "é", "-", "{", ".", "\t", "\r", "\f", "\u00a0", "\u2028", "#")


def _edits(text):
    """The text cut short, and with each of ``EDIT_CHARS`` inserted, at every
    boundary of its fuzz tokens."""
    for i in itertools.accumulate(map(len, TOKEN_RE.findall(text)), initial=0):
        yield text[:i]
        for char in EDIT_CHARS:
            yield text[:i] + char + text[i:]


def _outcome(parse, text, ctx):
    try:
        return parse(text, ctx)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def test_parser_agrees_with_the_reference():
    """The word-list parser gives the token-stream parser's narration, or its
    error class, message, line and column: on every single edit of the
    Woo-Lam narrations, and on mutated corpus, generated and benchmark ones."""
    outcomes = collections.Counter()

    def agree(text, ctx):
        ref = _outcome(reference_parse_narration, text, ctx)
        assert _outcome(parse_narration, text, ctx) == ref, text
        outcomes["accept" if isinstance(ref, Narration) else ref[0].__name__] += 1

    for stem in STEMS:
        ctx = parse_context(TEXTS[(stem, "ctx")])
        for text in _edits(TEXTS[(stem, "proto")]):
            agree(text, ctx)

    gen = perfbench_gen()
    seeds = [(c.context, c.protocol) for c in gen.random_batch(3, 40)]
    seeds += [(c.context, c.protocol) for c in gen.synth_chain_cases(3, 8, 2)]
    seeds += list(_corpus_texts())

    @given(data=st.data())
    @settings(max_examples=150)
    def law(data):
        if data.draw(st.booleans()):
            context_text, text = data.draw(st.sampled_from(seeds))
            ctx = parse_context(context_text)
        else:
            ctx, narration = data.draw(protocol_cases())
            text = "\n".join([f"protocol {narration.name}", *map(str, narration.steps)])
        for _ in range(data.draw(st.integers(0, 3))):
            text = data.draw(st.sampled_from([_mutate_tokens, _mutate_lines]))(text, data)
        agree(text, ctx)

    law()
    assert outcomes.keys() == {"accept", "ParseError", "UndeclaredAtom"}, outcomes


def test_parse_rejects_non_key_encryption(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("protocol P\n1. A -> B : {A}Nb\n", ctx)


def test_non_key_encryption_error_names_the_key(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError) as err:
        parse_narration("protocol P\n1. A -> B : {A}\n  Nb\n", ctx)
    assert (err.value.line, err.value.column) == (3, 3)
    assert str(err.value) == "line 3, column 3: encryption key 'Nb' is not a declared symmetric key"


def test_extracts_exactly_the_six_roles(woolam_mod):
    narr, ctx = woolam_mod
    roles = extract_roles(narr, ctx)
    assert [r.label for r in roles] == ["A.1", "A.2", "B.1", "B.2", "B.3", "S.1"]


EXPECTED_ROLE_STEPS = {
    "A.1": [("i.1", Direction.SEND, "B", "A")],
    "A.2": [
        ("i.1", Direction.SEND, "B", "A"),
        ("i.2", Direction.RECEIVE, "B", "?X"),
        ("i.3", Direction.SEND, "B", "{B.kab^i}kas"),
    ],
    "B.1": [
        ("i.1", Direction.RECEIVE, "A", "A"),
        ("i.2", Direction.SEND, "A", "Nb^i"),
    ],
    "B.2": [
        ("i.1", Direction.RECEIVE, "A", "A"),
        ("i.2", Direction.SEND, "A", "Nb^i"),
        ("i.3", Direction.RECEIVE, "A", "?Y"),
        ("i.4", Direction.SEND, "S", "{A.Nb^i.?Y}kbs"),
    ],
    "B.3": [
        ("i.1", Direction.RECEIVE, "A", "A"),
        ("i.2", Direction.SEND, "A", "Nb^i"),
        ("i.3", Direction.RECEIVE, "A", "?Y"),
        ("i.4", Direction.SEND, "S", "{A.Nb^i.?Y}kbs"),
        ("i.5", Direction.RECEIVE, "S", "{Nb^i.{A.?Z}kbs}kbs"),
    ],
    "S.1": [
        ("i.4", Direction.RECEIVE, "B", "{A.?U.{B.?V}kas}kbs"),
        ("i.5", Direction.SEND, "B", "{?U.{A.?V}kbs}kbs"),
    ],
}


def test_role_contents_match_the_expected_abstractions(woolam_mod):
    narr, ctx = woolam_mod
    roles = role_map(extract_roles(narr, ctx))
    assert roles.keys() == EXPECTED_ROLE_STEPS.keys()
    for label, expected in EXPECTED_ROLE_STEPS.items():
        got = [
            (s.step_id, s.direction, s.partner, format_message(s.payload))
            for s in roles[label].steps
        ]
        assert got == expected, label


def test_a_key_held_without_possession_rights_opens_nothing():
    # A generates k but is outside its level, so A may encrypt under k yet
    # cannot decrypt with it; B is authorized for k but never generated it
    ctx = parse_context(
        "principals A, B, S, I\nkey k fresh(A) level {B,S}\nnonce Na fresh(A) level {A,B}\n"
    )
    narr = parse_narration("protocol P\n1. A -> B : {Na}k\n2. B -> A : {Na}k\n", ctx)
    roles = role_map(extract_roles(narr, ctx))
    got = {
        label: [(s.step_id, s.direction, format_message(s.payload)) for s in role.steps]
        for label, role in roles.items()
    }
    assert got == {
        "A.1": [("i.1", Direction.SEND, "{Na^i}k^i")],
        "A.2": [("i.1", Direction.SEND, "{Na^i}k^i"), ("i.2", Direction.RECEIVE, "?X")],
        "B.1": [("i.1", Direction.RECEIVE, "?Y"), ("i.2", Direction.SEND, "?Y")],
    }


def test_an_encryption_the_receiver_cannot_open_is_forwarded_as_its_variable():
    ctx = parse_context(
        "principals A, B, S, I\nkey kas shared(A,S)\nkey kbs shared(B,S)\n"
        "key kab fresh(A) level {A,B,S}\nnonce Na fresh(A) level {A,B}\n"
    )
    narr = parse_narration("protocol P\n1. A -> B : {Na}kas\n2. B -> S : {Na}kas\n", ctx)
    got = {
        role.label: [format_message(s.payload) for s in role.steps]
        for role in extract_roles(narr, ctx)
    }
    assert got == {"A.1": ["{Na^i}kas"], "B.1": ["?X", "?X"], "S.1": ["{?Y}kas"]}


# A parsed narration names declared atoms only; one built by hand may hold a
# variable. B appears first in the second narration, so its receive of ?X is
# abstracted before A's send of it.
@pytest.mark.parametrize("steps, line", [
    ([("A", "B", Variable("X"), 2)], 2),
    ([("B", "A", Identity("A"), 2), ("A", "B", Variable("X"), 3)], 3),
], ids=["send", "receive"])
def test_a_hand_built_variable_payload_is_rejected_at_its_step(steps, line, woolam_mod):
    _, ctx = woolam_mod
    narr = Narration("P", tuple(
        NarrationStep(index, sender, receiver, payload, step_line)
        for index, (sender, receiver, payload, step_line) in enumerate(steps, start=1)
    ))
    with pytest.raises(ParseError) as err:
        extract_roles(narr, ctx)
    assert str(err.value) == f"line {line}: cannot abstract message component '?X'"


def test_roles_are_prefix_closed_per_owner(woolam_mod):
    narr, ctx = woolam_mod
    roles = extract_roles(narr, ctx)
    by_owner = {}
    for r in roles:
        by_owner.setdefault(r.owner, []).append(r)
    for group in by_owner.values():
        group.sort(key=lambda r: len(r.steps))
        for shorter, longer in zip(group, group[1:]):
            assert longer.steps[: len(shorter.steps)] == shorter.steps


def test_reconcretization_recovers_the_narration(woolam_mod):
    """Substituting the unknowns back reproduces the original payloads."""
    narr, ctx = woolam_mod
    roles = role_map(extract_roles(narr, ctx))
    nb = Nonce("Nb")
    kab, kas = SymKey("kab"), SymKey("kas")
    from wfcheck import Enc, concat

    sigma = {
        Variable("X"): nb,
        Variable("Y"): Enc(concat([Identity("B"), kab]), kas),
        Variable("Z"): kab,
        Variable("U"): nb,
        Variable("V"): kab,
    }
    by_index = {s.index: s.payload for s in narr.steps}
    for role in roles.values():
        for step in role.steps:
            recovered = strip_sessions(apply(sigma, step.payload))
            assert recovered == by_index[step.narration_index]


def test_generated_messages_listing_and_multiplicity(woolam_mod):
    narr, ctx = woolam_mod
    msgs = generated_messages(extract_roles(narr, ctx))
    assert len(msgs) == 10  # 3 from the initiator, 5 from the responder, 2 from the server
    # duplicate payloads survive with multiplicity before deduplication:
    # the bare identity A is generated by both the initiator and the responder
    bare_identities = [m for m in msgs if canonical_form(m) == "A"]
    assert len(bare_identities) == 2
    # messages are renamed apart pairwise
    from wfcheck import vars_of

    for i, m1 in enumerate(msgs):
        for m2 in msgs[i + 1:]:
            assert atoms_of(m1).isdisjoint(atoms_of(m2))
            assert vars_of(m1).isdisjoint(vars_of(m2))


def test_generated_messages_empty_roles():
    assert generated_messages([]) == []


EXPECTED_PATTERNS = [
    "{B.kab^i}kas",
    "{A.Nb^i.?V_0}kbs",
    "{Nb^i.{A.?V_0}kbs}kbs",
    "{A.?V_0.{B.?V_1}kas}kbs",
    "{?V_0.{A.?V_1}kbs}kbs",
]


def test_pattern_set_matches_modulo_renaming(woolam_mod):
    narr, ctx = woolam_mod
    patterns = encryption_patterns(extract_roles(narr, ctx))
    assert [canonical_form(p) for p in patterns] == EXPECTED_PATTERNS
    # each pattern is mapped to its form, and renamed with its first step's tag
    assert list(patterns.values()) == EXPECTED_PATTERNS
    assert [format_message(p) for p in patterns] == [
        "{B_3.kab_3^i}kas_3",
        "{A_7.Nb_7^i.?Y_7}kbs_7",
        "{Nb_8^i.{A_8.?Z_8}kbs_8}kbs_8",
        "{A_9.?U_9.{B_9.?V_9}kas_9}kbs_9",
        "{?U_10.{A_10.?V_10}kbs_10}kbs_10",
    ]


def test_patterns_drop_non_encryptions_and_duplicates(woolam_mod):
    narr, ctx = woolam_mod
    roles = extract_roles(narr, ctx)
    assert len(encryption_patterns(roles + roles)) == 5
    plain = parse_narration("protocol Plain\n1. A -> B : A\n2. B -> A : Nb\n", ctx)
    assert encryption_patterns(extract_roles(plain, ctx)) == {}


def test_zero_step_narration_is_allowed(woolam_mod):
    _, ctx = woolam_mod
    narr = parse_narration("protocol Empty\n", ctx)
    assert narr.steps == ()
    assert extract_roles(narr, ctx) == ()


def _corpus_texts():
    for name in CORPUS_STEMS:
        yield (CORPUS / f"{name}.ctx").read_text(), (CORPUS / f"{name}.proto").read_text()


PROTOCOL_SETS = pytest.mark.parametrize(
    "texts",
    [
        _corpus_texts,
        # more than ten role variables: the numbered names come into use
        lambda: ((c.context, c.protocol) for c in perfbench_gen().synth_chain_cases(23, 32, 4)),
        lambda: ((c.context, c.protocol) for c in perfbench_gen().random_batch(7, 300)),
    ],
    ids=["corpus", "synth-chain", "random-batch"],
)


def _roles_of(texts):
    for context_text, protocol_text in texts():
        ctx = parse_context(context_text)
        yield extract_roles(parse_narration(protocol_text, ctx), ctx)


@PROTOCOL_SETS
def test_a_rename_index_marks_renamed_pattern_leaves_only(texts):
    for roles in _roles_of(texts):
        assert_only_pattern_leaves_are_renamed(roles, encryption_patterns(roles))


@PROTOCOL_SETS
def test_patterns_print_as_the_deduplicated_renamed_listing(texts):
    # the patterns rename only the first payload of each form; the reference
    # renames every payload, then keeps the first encryption of each form
    for roles in _roles_of(texts):
        patterns = encryption_patterns(roles)
        reference = reference_patterns(generated_messages(roles))
        assert [format_message(p) for p in patterns] == [format_message(p) for p in reference]
        assert list(patterns.values()) == [canonical_form(p) for p in reference]


def test_role_variables_past_the_tenth_get_numbered_names():
    case = perfbench_gen().synth_chain_cases(23, 32, 4)[1]
    ctx = parse_context(case.context)
    roles = extract_roles(parse_narration(case.protocol, ctx), ctx)
    send = role_map(roles)["S.17"].final
    assert (send.step_id, format_message(send.payload)) == ("i.37", "{?X2}ka2s")
