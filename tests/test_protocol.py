"""Narration parsing, role extraction and the encryption pattern set."""

import pytest

from wfcheck import (
    Direction,
    Identity,
    Nonce,
    ParseError,
    SymKey,
    UndeclaredAtom,
    Variable,
    apply,
    canonical_form,
    encryption_patterns,
    extract_roles,
    format_message,
    generated_messages,
    parse_narration,
    strip_sessions,
)


def role_map(roles):
    return {r.label: r for r in roles}


def test_parse_narration_steps(woolam_mod):
    narr, _ = woolam_mod
    assert narr.name == "WooLamMod"
    assert [s.index for s in narr.steps] == [1, 2, 3, 4, 5]
    assert (narr.steps[2].sender.name, narr.steps[2].receiver.name) == ("A", "B")
    assert format_message(narr.steps[3].payload) == "{A.Nb.{B.kab}kas}kbs"


def test_parse_rejects_empty_input(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("", ctx)


def test_parse_rejects_undeclared_atom(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(UndeclaredAtom) as err:
        parse_narration("protocol P\n1. A -> B : {A}kxy\n", ctx)
    assert (err.value.line, err.value.column) == (2, 16)


def test_parse_rejects_non_consecutive_steps(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("protocol P\n2. A -> B : A\n", ctx)


def test_parse_rejects_non_key_encryption(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError):
        parse_narration("protocol P\n1. A -> B : {A}Nb\n", ctx)


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
            (s.step_id, s.direction, s.partner.name, format_message(s.payload))
            for s in roles[label].steps
        ]
        assert got == expected, label


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
    nb = Nonce("Nb", owner="B")
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
