"""Message construction, traversal, substitution, unification, display."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcheck import (
    Concat,
    Enc,
    Identity,
    Nonce,
    ParseError,
    SymKey,
    Variable,
    apply,
    atoms_of,
    canonical_form,
    concat,
    format_message,
    rename_apart,
    unify,
    vars_of,
)
from wfcheck.protocol import tokenize
from wfcheck.terms import format_substitution

from derivation import EMPTY
from messages import erase_copies, parse_message, strip_sessions

A, B, S = Identity("A"), Identity("B"), Identity("S")
KAS, KBS = SymKey("kas"), SymKey("kbs")
KAB_I = SymKey("kab", session="i")
NB_I = Nonce("Nb", session="i")
X, Y, U, V = Variable("X"), Variable("Y"), Variable("U"), Variable("V")


def test_atoms_of_includes_keys():
    m = Enc(concat([B, KAB_I]), KAS)
    assert atoms_of(m) == {B, KAB_I, KAS}


def test_atoms_of_bare_variable_is_empty():
    assert atoms_of(X) == frozenset()


def test_atoms_of_concat():
    assert atoms_of(concat([A, NB_I])) == {A, NB_I}


def test_vars_of():
    assert vars_of(Enc(concat([A, NB_I, Y]), KBS)) == {Y}
    assert vars_of(Enc(concat([B, KAB_I]), KAS)) == frozenset()
    assert vars_of(Enc(concat([U, Enc(concat([A, V]), KBS)]), KBS)) == {U, V}


def test_leaves_run_left_to_right_with_body_before_key():
    from wfcheck.terms import leaves

    m = concat([Enc(concat([B, Enc(X, KAB_I)]), KAS), A, Enc(EMPTY, KBS)])
    assert leaves(m) == [B, X, KAB_I, KAS, A, EMPTY, KBS]


def test_map_leaves_reflattens():
    from wfcheck.terms import map_leaves

    m = concat([A, X, Enc(concat([Y, B]), KAS)])
    out = map_leaves(m, lambda t: {X: concat([B, S]), Y: S}.get(t, t))
    assert out == concat([A, B, S, Enc(concat([S, B]), KAS)])
    assert isinstance(out, Concat) and len(out.parts) == 4


def test_concat_stays_flat():
    m = concat([A, concat([B, S])])
    assert isinstance(m, Concat) and m.parts == (A, B, S)
    for parts in [(), (A,), (A, Concat((B, S)))]:
        with pytest.raises(ValueError):
            Concat(parts)


def test_apply_examples():
    assert apply({X: NB_I}, X) == NB_I
    # the sending-step unifier of the initiator's role instantiates the
    # renamed pattern back to the concrete payload
    b1 = Identity("B", copy=1)
    kab1 = SymKey("kab", session="i", copy=1)
    kas1 = SymKey("kas", copy=1)
    pattern = Enc(concat([b1, kab1]), kas1)
    sigma = {b1: B, kab1: KAB_I, kas1: KAS}
    assert apply(sigma, pattern) == Enc(concat([B, KAB_I]), KAS)
    assert apply({}, pattern) == pattern


def test_apply_flattens_after_substitution():
    assert apply({X: concat([A, B])}, concat([S, X])) == concat([S, A, B])


def test_unify_pattern_against_concrete_send():
    b1 = Identity("B", copy=1)
    kab1 = SymKey("kab", session="i", copy=1)
    kas1 = SymKey("kas", copy=1)
    pattern = Enc(concat([b1, kab1]), kas1)
    sent = Enc(concat([B, KAB_I]), KAS)
    sigma = unify(pattern, sent)
    assert sigma == {b1: B, kab1: KAB_I, kas1: KAS}
    assert apply(sigma, pattern) == apply(sigma, sent)


def test_unify_distinct_atoms_fail():
    assert unify(A, B) is None


def test_unify_two_renamed_server_patterns():
    u2, a7, v2 = Variable("U", copy=2), Identity("A", copy=7), Variable("V", copy=2)
    k5 = SymKey("kbs", copy=5)
    left = Enc(concat([u2, Enc(concat([a7, v2]), k5)]), k5)
    nb4 = Nonce("Nb", session="i", copy=4)
    a5, z1 = Identity("A", copy=5), Variable("Z", copy=1)
    k3 = SymKey("kbs", copy=3)
    right = Enc(concat([nb4, Enc(concat([a5, z1]), k3)]), k3)
    sigma = unify(left, right)
    assert sigma is not None
    assert apply(sigma, left) == apply(sigma, right)
    assert sigma[u2] == nb4  # the variable picks up the nonce parameter
    assert apply(sigma, a7) == apply(sigma, a5)
    assert apply(sigma, v2) == apply(sigma, z1)


def test_unify_binds_variables_to_compounds():
    sigma = unify(concat([Identity("A", copy=1), Y]), concat([A, Enc(B, KBS)]))
    assert sigma is not None and sigma[Y] == Enc(B, KBS)


def test_unify_occurs_check():
    assert unify(X, Enc(X, KAS)) is None


def test_unify_kind_restriction_on_parameters():
    nonce_param = Nonce("Nb", session="i", copy=3)
    assert unify(nonce_param, B) is None          # nonce parameter vs identity
    assert unify(nonce_param, NB_I) == {nonce_param: NB_I}
    key_param = SymKey("kas", copy=2)
    assert unify(key_param, KBS) == {key_param: KBS}
    assert unify(key_param, Enc(A, KBS)) is None  # parameter vs compound


def test_unify_concrete_sessions_do_not_cross():
    nb_j = Nonce("Nb", session="j")
    assert unify(NB_I, nb_j) is None


def test_unifier_is_idempotent():
    sigma = unify(concat([X, Y]), concat([Enc(B, KBS), A]))
    m = concat([X, Y, S])
    assert apply(sigma, apply(sigma, m)) == apply(sigma, m)


def test_rename_apart_disjoint_and_erasable():
    m = Enc(concat([A, NB_I, Y]), KBS)
    r1, r2 = rename_apart(m, 1), rename_apart(m, 2)
    assert vars_of(r1).isdisjoint(vars_of(r2))
    assert atoms_of(r1).isdisjoint(atoms_of(r2))
    assert erase_copies(r1) == m and erase_copies(r2) == m
    renamed_nonce = rename_apart(NB_I, 4)
    assert renamed_nonce.session == "i" and renamed_nonce.copy == 4


def test_canonical_form_identifies_alpha_equivalent_patterns():
    p1 = Enc(concat([Identity("A", copy=1), Variable("Y", copy=1)]), SymKey("kbs", copy=1))
    p2 = Enc(concat([Identity("A", copy=9), Variable("W", copy=2)]), SymKey("kbs", copy=9))
    assert canonical_form(p1) == canonical_form(p2)
    p3 = Enc(concat([Identity("A", copy=1), Variable("Y", copy=1)]), SymKey("kas", copy=1))
    assert canonical_form(p1) != canonical_form(p3)


def test_strip_sessions():
    assert strip_sessions(Enc(concat([B, KAB_I]), KAS)) == Enc(concat([B, SymKey("kab")]), KAS)


#: Base names of the atoms in the printed terms below.
ATOMS = {
    "A": A, "B": B, "C": Identity("C"), "S": S, "k": SymKey("k"),
    "kas": KAS, "kbs": KBS, "kab": SymKey("kab"), "Nb": Nonce("Nb"),
}.__getitem__


@pytest.mark.parametrize(
    "text",
    [
        "A",
        "ε",
        "?X",
        "A.Nb^i.?Y",
        "{B.kab^i}kas",
        "{Nb^i.{A.?Z_8}kbs_8}kbs_8",
        "{A_9.?U_9.{B_9.?V_9}kas_9}kbs_9",
    ],
)
def test_parse_format_round_trip(text):
    msg = parse_message(text, ATOMS)
    assert format_message(msg) == text
    assert parse_message(format_message(msg), ATOMS) == msg


# Unifiers whose bindings depend on the order pairs are taken in, recorded
# from the former unifier: the left side is bound first, the last part of a
# concatenation is taken first, and a variable bound to a concatenation
# re-flattens the parts it is taken with.
@pytest.mark.parametrize("left, right, unifier", [
    ("?V_1.?V_1", "?X.?Y", "{?V_1 -> ?X, ?Y -> ?X}"),
    ("?X.?Y", "?V_1.?V_1", "{?X -> ?V_1, ?Y -> ?V_1}"),
    ("{?X.C}k.{?X}k", "{A.B.C}k.{A.B}k", "{?X -> A.B}"),
    ("A_1.A_1", "A.B", None),
])
def test_unifiers_where_order_matters(left, right, unifier):
    sigma = unify(parse_message(left, ATOMS), parse_message(right, ATOMS))
    assert (sigma if sigma is None else format_substitution(sigma)) == unifier


def test_swapping_the_parts_of_both_sides_gives_the_same_answer():
    # the swapped pair meets {?X.C}k and {A.B.C}k before ?X is bound
    left = parse_message("{?X.C}k.{?X}k", ATOMS)
    right = parse_message("{A.B.C}k.{A.B}k", ATOMS)
    swapped = [concat(reversed(m.parts)) for m in (left, right)]
    assert unify(*swapped) == unify(left, right)


@st.composite
def one_variable_in_parts_of_unequal_length(draw):
    """Encryptions of ``?X`` among 0-2 atoms, joined, and the instance of
    that term under ``?X`` bound to a block of two or three atoms."""
    atoms = st.sampled_from([A, B, S, Identity("C"), Nonce("Nb")])
    keys = st.sampled_from([KAS, KBS, SymKey("k")])

    def part():
        around = draw(st.lists(atoms, max_size=2))
        cut = draw(st.integers(0, len(around)))
        return Enc(concat(around[:cut] + [X] + around[cut:]), draw(keys))

    left = concat([part() for _ in range(draw(st.integers(2, 3)))])
    return left, apply({X: concat(draw(st.lists(atoms, min_size=2, max_size=3)))}, left)


@given(one_variable_in_parts_of_unequal_length())
@settings(max_examples=300)
def test_unify_answers_alike_when_both_sides_swap_their_parts(pair):
    swapped = [concat(reversed(m.parts)) for m in pair]
    answers = [unify(left, right) for left, right in (pair, swapped)]
    assert (answers[0] is None) == (answers[1] is None)
    for (left, right), sigma in zip((pair, swapped), answers):
        if sigma is not None:
            assert apply(sigma, left) == apply(sigma, right)
    # a part that encrypts ?X alone binds it to the block, and the rest follows
    if any(p.body == X for p in pair[0].parts):
        assert None not in answers


def test_parser_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_message("A }", ATOMS)


@pytest.mark.parametrize("text", ["?X^i", "{A.B}", "{A.B", "A.", "{A}.", "?", "A ?"])
def test_reader_rejects_malformed_printed_terms(text):
    with pytest.raises(ParseError):
        parse_message(text, ATOMS)


def test_reader_skips_whitespace_between_tokens():
    assert parse_message(" { A . Nb^i } kas ", ATOMS) == parse_message("{A.Nb^i}kas", ATOMS)


def test_derivation_empty_display():
    assert format_message(EMPTY) == "ε"


# Token positions after each kind of whitespace. Only "\n" ends a line:
# "\r", "\f", "\t", NBSP and U+2028 are whitespace inside it, one column each.
@pytest.mark.parametrize("text, tokens", [
    (
        "1. A -> B : Na\r\n2. B -> A : {Na}kab\r\n",
        [("num", "1", 1, 1), (".", ".", 1, 2), ("name", "A", 1, 4), ("arrow", "->", 1, 6),
         ("name", "B", 1, 9), (":", ":", 1, 11), ("name", "Na", 1, 13),
         ("num", "2", 2, 1), (".", ".", 2, 2), ("name", "B", 2, 4), ("arrow", "->", 2, 6),
         ("name", "A", 2, 9), (":", ":", 2, 11), ("{", "{", 2, 13), ("name", "Na", 2, 14),
         ("}", "}", 2, 16), ("name", "kab", 2, 17)],
    ),
    (
        "A\f.B\n\fC",
        [("name", "A", 1, 1), (".", ".", 1, 3), ("name", "B", 1, 4), ("name", "C", 2, 2)],
    ),
    (
        "\tA ->\tB\n\t\t{Na}k",
        [("name", "A", 1, 2), ("arrow", "->", 1, 4), ("name", "B", 1, 7), ("{", "{", 2, 3),
         ("name", "Na", 2, 4), ("}", "}", 2, 6), ("name", "k", 2, 7)],
    ),
    (
        "A\u00a0.\u00a0B\n\u00a0C",
        [("name", "A", 1, 1), (".", ".", 1, 3), ("name", "B", 1, 5), ("name", "C", 2, 2)],
    ),
    (
        "A\u2028.B\nC\u2028\u2028D",
        [("name", "A", 1, 1), (".", ".", 1, 3), ("name", "B", 1, 4), ("name", "C", 2, 1),
         ("name", "D", 2, 4)],
    ),
    (
        "A . B # a comment -> {x}\n  C # another\n#only\nD",
        [("name", "A", 1, 1), (".", ".", 1, 3), ("name", "B", 1, 5), ("name", "C", 2, 3),
         ("name", "D", 4, 1)],
    ),
], ids=["crlf", "form-feed", "tab", "nbsp", "line-separator", "comment"])
def test_token_positions(text, tokens):
    assert [tuple(t) for t in tokenize(text)] == tokens


def test_unexpected_character_position_after_crlf():
    with pytest.raises(ParseError) as err:
        tokenize("A\r\nB\r\n  C @ D")
    assert (err.value.line, err.value.column) == (3, 5)
    assert str(err.value) == "line 3, column 5: unexpected character '@'"
