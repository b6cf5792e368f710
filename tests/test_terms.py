"""Message construction, traversal, substitution, unification, display."""

import pytest

from wfcheck import (
    EMPTY,
    Concat,
    Enc,
    Identity,
    Nonce,
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


def test_map_leaves_reflattens_and_absorbs_empty():
    from wfcheck.terms import map_leaves

    m = concat([A, X, Enc(concat([Y, B]), KAS)])
    out = map_leaves(m, lambda t: {X: concat([B, S]), Y: EMPTY}.get(t, t))
    assert out == concat([A, B, S, Enc(B, KAS)])
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


def _resolver():
    from wfcheck.terms import split_atom_name

    atoms = {
        "A": A, "B": B, "S": S,
        "kas": KAS, "kbs": KBS, "kab": SymKey("kab"),
        "Nb": Nonce("Nb"),
    }

    def resolve(text, tok):
        base, copy, session = split_atom_name(text)
        atom = atoms[base]
        if session is not None:
            atom = atom._replace(session=session)
        if copy is not None:
            atom = atom._replace(copy=copy)
        return atom

    return resolve


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
    resolve = _resolver()
    msg = parse_message(text, resolve)
    assert format_message(msg) == text
    assert parse_message(format_message(msg), resolve) == msg


def test_parser_rejects_trailing_garbage():
    from wfcheck import ParseError

    with pytest.raises(ParseError):
        parse_message("A }", _resolver())


def test_derivation_empty_display():
    assert format_message(EMPTY) == "ε"
