"""Message construction, traversal, substitution, unification, display."""

import pytest
from hypothesis import example, given, settings
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
    canonical_form,
    concat,
    format_message,
    rename_apart,
    unify,
    vars_of,
)
from wfcheck.protocol import parse_narration
from wfcheck.terms import format_substitution

from derivation import EMPTY
from messages import (
    atoms_of,
    erase_copies,
    parse_message,
    reference_canonical_form,
    reference_rename_apart,
    strip_sessions,
)

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


def test_canonical_form_keeps_a_session_tag_and_erases_rename_indices():
    m = Enc(concat([Identity("A", copy=3), Nonce("Nb", session="i", copy=3), Variable("Y", copy=3)]),
            SymKey("kab", session="i", copy=3))
    assert canonical_form(m) == "{A.Nb^i.?V_0}kab^i"


#: Leaves of every kind, with and without a rename index or session tag;
#: the pools are small, so a variable or atom often occurs twice.
_copies = st.none() | st.integers(1, 3)
_sessions = st.none() | st.just("i")
_variables = st.builds(Variable, st.sampled_from(["X", "Y"]), _copies)
_keys = st.builds(SymKey, st.sampled_from(["kas", "kab"]), _sessions, _copies) | _variables
_leaves = st.one_of(
    st.builds(Identity, st.sampled_from(["A", "B"]), _copies),
    st.builds(Nonce, st.sampled_from(["Na", "Nb"]), _sessions, _copies),
    _keys,
)
_terms = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(concat),
        st.builds(Enc, kids, _keys),
    ),
    max_leaves=10,
)


@given(m=_terms, tag=st.integers(1, 9))
@example(
    m=Enc(concat([A, Identity("B", copy=2), Nonce("Nb", "i", 2), X, Enc(concat([X, Variable("Y", 1)]), KAB_I)]),
          SymKey("kas", copy=2)),
    tag=4,
)
@settings(max_examples=300)
def test_canonical_form_and_rename_apart_equal_their_leaf_map_definitions(m, tag):
    assert canonical_form(m) == reference_canonical_form(m)
    assert rename_apart(m, tag) == reference_rename_apart(m, tag)


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
    # the body is deferred and only the leaf binding k_1 -> k follows, which
    # cannot change a length: the retry defers it again and fails
    ("{?X.C_1}k_1", "{A.B.C}k", None),
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


# Diagnostic positions after each kind of whitespace: a character no word
# takes, then a word out of place. Only "\n" ends a line: "\r", "\f", "\t",
# NBSP and U+2028 are whitespace inside it, one column each, and a comment
# holds no words.
@pytest.mark.parametrize("errors", [
    [
        ("protocol P\r\n1. A -> B : A\r\n2. B -> A @ Nb\r\n", "unexpected character '@'", 3, 11),
        ("protocol P\r\n1. A -> B : A\r\n2. B -> A  {A}kas\r\n", "expected ':', found '{'", 3, 12),
    ],
    [
        ("protocol P\f\n1.\fA -> B : A\f@\n", "unexpected character '@'", 2, 15),
        ("protocol P\n\f1. A -> B\f: A\f.\fkas}\n", "expected 'num', found '}'", 2, 21),
    ],
    [
        ("protocol P\n1. A -> B :\tA @\n", "unexpected character '@'", 2, 15),
        ("protocol P\r\n1. A -> B : A\r\n2. B\t-> A  {A}kas\n", "expected ':', found '{'", 3, 12),
    ],
    [
        ("protocol P\n1.\u00a0A -> B : A\u00a0?\n", "unexpected character '?'", 2, 15),
        ("protocol P\n1. A\u00a0->\u00a0B : {A}Nb\n",
         "encryption key 'Nb' is not a declared symmetric key", 2, 16),
    ],
    [
        ("protocol P\n1. A -> B :\u2028A\u2028\u2028é\n", "unexpected character 'é'", 2, 16),
        ("protocol P\n1. A -> B : A\u2028.\u2028Na_x\n", "unexpected character '_'", 2, 19),
    ],
    [
        ("protocol P # a comment -> {x}\n1. A -> B : A # @\n#only\n  @", "unexpected character '@'",
         4, 3),
        ("protocol P # a comment -> {x}\n  1. A -> B : A # another\n#only\n2. B -> A  A",
         "expected ':', found 'A'", 4, 12),
    ],
], ids=["crlf", "form-feed", "tab", "nbsp", "line-separator", "comment"])
def test_token_positions(errors, woolam_mod):
    _, ctx = woolam_mod
    for text, message, line, column in errors:
        with pytest.raises(ParseError) as err:
            parse_narration(text, ctx)
        assert (err.value.line, err.value.column) == (line, column), text
        assert str(err.value) == str(ParseError(message, line, column))


def test_unexpected_character_position_after_crlf(woolam_mod):
    _, ctx = woolam_mod
    with pytest.raises(ParseError) as err:
        parse_narration("protocol P\r\n1. A -> B : A\r\n  2. B -> A : @ Nb", ctx)
    assert (err.value.line, err.value.column) == (3, 15)
    assert str(err.value) == "line 3, column 15: unexpected character '@'"
