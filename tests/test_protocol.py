"""Narration parsing, role extraction and the encryption pattern set."""

import pytest

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
    generated_messages,
    parse_context,
    parse_narration,
    render,
)
from wfcheck.protocol import MAX_NESTING

from conftest import CORPUS, perfbench_gen
from messages import assert_only_pattern_leaves_are_renamed, strip_sessions


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
    from wfcheck import atoms_of, vars_of

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
    patterns = encryption_patterns(generated_messages(extract_roles(narr, ctx)))
    assert [canonical_form(p) for p in patterns] == EXPECTED_PATTERNS


def test_patterns_drop_non_encryptions_and_duplicates(woolam_mod):
    narr, ctx = woolam_mod
    msgs = generated_messages(extract_roles(narr, ctx))
    assert len(encryption_patterns(msgs + msgs)) == 5
    assert len(encryption_patterns([Identity("A"), Variable("X")])) == 0


def test_zero_step_narration_is_allowed(woolam_mod):
    _, ctx = woolam_mod
    narr = parse_narration("protocol Empty\n", ctx)
    assert narr.steps == ()
    assert extract_roles(narr, ctx) == ()


def _corpus_texts():
    for name in ("woolam_modified", "woolam_original"):
        yield (CORPUS / f"{name}.ctx").read_text(), (CORPUS / f"{name}.proto").read_text()


@pytest.mark.parametrize(
    "texts",
    [
        _corpus_texts,
        # more than ten role variables: the numbered names come into use
        lambda: ((c.context, c.protocol) for c in perfbench_gen().synth_chain_cases(23, 32, 4)),
        lambda: ((c.context, c.protocol) for c in perfbench_gen().random_batch(7, 300)),
    ],
    ids=["corpus", "synth-chain", "random-batch"],
)
def test_a_rename_index_marks_renamed_pattern_leaves_only(texts):
    for context_text, protocol_text in texts():
        ctx = parse_context(context_text)
        roles = extract_roles(parse_narration(protocol_text, ctx), ctx)
        assert_only_pattern_leaves_are_renamed(
            roles, encryption_patterns(generated_messages(roles))
        )


def test_role_variables_past_the_tenth_get_numbered_names():
    case = perfbench_gen().synth_chain_cases(23, 32, 4)[1]
    ctx = parse_context(case.context)
    roles = extract_roles(parse_narration(case.protocol, ctx), ctx)
    send = role_map(roles)["S.17"].final
    assert (send.step_id, format_message(send.payload)) == ("i.37", "{?X2}ka2s")
