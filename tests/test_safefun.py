"""Derivation, protective keys, selections and the evaluation function."""

import pytest

from wfcheck import (
    BOTTOM,
    AtomAbsent,
    Enc,
    Identity,
    Nonce,
    SecurityLevel,
    SymKey,
    TOP,
    Variable,
    concat,
    f_prime,
    format_message,
    parse_context,
)
from wfcheck.safefun import Variant

from derivation import EMPTY, derive, derive_vars
from evaluation import Selection, protective_key, psi, select

A, B, C, D, S = (Identity(n) for n in "ABCDS")
KAS, KBS, KAB = SymKey("kas"), SymKey("kbs"), SymKey("kab")
KAB_I = SymKey("kab", session="i")
NB_I = Nonce("Nb", session="i")
X, Y, Z, U, V = (Variable(n) for n in "XYZUV")


@pytest.fixture(scope="module")
def ctx():
    return parse_context(
        "principals A, B, S, I\n"
        "key kas shared(A,S)\n"
        "key kbs shared(B,S)\n"
        "key kab fresh(A) level {A,B,S}\n"
        "nonce Nb fresh(B) level public\n"
    )


@pytest.fixture(scope="module")
def guideline_ctx():
    # the worked selection example: alpha readable by three parties, a key
    # shared with the server protecting the inner section, a pairwise key
    # protecting the whole message
    return parse_context(
        "principals A, B, C, D, S, I\n"
        "key kas shared(A,S)\n"
        "key kab shared(A,B)\n"
        "nonce alpha level {A,B,S}\n"
        "nonce beta level {A,S}\n"
    )


# -- derivation --------------------------------------------------------------

def test_derive_bare_variable_vanishes():
    assert derive(X) is EMPTY


def test_derive_keeps_the_evaluated_variable(ctx):
    m = Enc(concat([A, U, Enc(concat([B, V]), KAS)]), KBS)
    assert format_message(derive(m, keep=U)) == "{A.?U.{B}kas}kbs"


def test_derive_removes_all_variables(ctx):
    m = Enc(concat([NB_I, Enc(concat([A, Z]), KBS)]), KBS)
    assert format_message(derive(m)) == "{Nb^i.{A}kbs}kbs"


def test_derive_atoms_unchanged():
    assert derive(KAS) == KAS
    assert derive_vars(Y, frozenset({X})) == Y


def test_derive_collapses_vanished_concat():
    assert derive(concat([X, Y])) is EMPTY
    assert derive(concat([A, X])) == A


def test_derive_set_composition():
    m = concat([X, A, Y])
    s1, s2 = frozenset({X}), frozenset({Y})
    assert derive_vars(m, s1 | s2) == derive_vars(derive_vars(m, s2), s1)


# -- protective keys ---------------------------------------------------------

def test_protective_key_for_the_session_key(ctx):
    m = Enc(concat([B, KAB_I]), KAS)
    found = protective_key(KAB_I, m, ctx)
    assert len(found) == 1
    key, section = found[0]
    assert key == KAS and section == m  # the whole message is the section


def test_protective_key_outermost_wins(guideline_ctx):
    alpha = Nonce("alpha")
    m = Enc(concat([C, Enc(concat([alpha, D]), KAS)]), KAB)
    found = protective_key(alpha, m, guideline_ctx)
    assert [key for key, _ in found] == [KAB]


def test_protective_key_unprotected_atom(ctx):
    assert protective_key(NB_I, concat([A, NB_I]), ctx) == ()


def test_protective_key_absent_atom_raises(ctx):
    with pytest.raises(AtomAbsent):
        protective_key(KAS, concat([A, B]), ctx)


def test_inner_key_protects_when_outer_key_is_too_weak(guideline_ctx):
    # beta is readable by {A,S} only: kab={A,B} is no protection for it,
    # the scan continues inward and anchors at kas
    beta = Nonce("beta")
    m = Enc(Enc(beta, KAS), KAB)
    found = protective_key(beta, m, guideline_ctx)
    assert [key for key, _ in found] == [KAS]


# -- selections and psi, the two-stage reference ----------------------------

def test_selection_of_the_guideline_example(guideline_ctx):
    alpha = Nonce("alpha")
    m = Enc(concat([C, Enc(concat([alpha, D]), KAS)]), KAB)
    sel = select(Variant.MAX, alpha, m, guideline_ctx)
    assert sel.atoms == {C, D, KAB}
    assert psi(sel, guideline_ctx) == SecurityLevel.of("A", "B", "C", "D")
    assert f_prime(Variant.MAX, alpha, m, guideline_ctx) == psi(sel, guideline_ctx)


def test_selection_for_the_session_key(ctx):
    sel = select(Variant.MAX, KAB_I, Enc(concat([B, KAB_I]), KAS), ctx)
    assert sel.atoms == {B, KAS}
    assert psi(sel, ctx) == SecurityLevel.of("A", "B", "S")


def test_selection_absent_target_is_supremum(ctx):
    sel = select(Variant.MAX, KAB_I, concat([A, B]), ctx)
    assert sel.supremum
    assert psi(sel, ctx) == TOP


def test_selection_variants(guideline_ctx):
    alpha = Nonce("alpha")
    m = Enc(concat([C, Enc(concat([alpha, D]), KAS)]), KAB)
    assert select(Variant.EK, alpha, m, guideline_ctx).atoms == {KAB}
    assert select(Variant.N, alpha, m, guideline_ctx).atoms == {C, D}
    assert psi(select(Variant.EK, alpha, m, guideline_ctx), guideline_ctx) == SecurityLevel.of("A", "B")
    assert psi(select(Variant.N, alpha, m, guideline_ctx), guideline_ctx) == SecurityLevel.of("C", "D")
    for v in (Variant.EK, Variant.N):
        expected = psi(select(v, alpha, m, guideline_ctx), guideline_ctx)
        assert f_prime(v, alpha, m, guideline_ctx) == expected


def test_psi_of_infimum_and_empty(ctx):
    assert psi(Selection(infimum=True), ctx) == BOTTOM
    assert psi(Selection(atoms=frozenset()), ctx) == TOP  # empty union is the top


# -- f_prime -----------------------------------------------------------------

def test_eval_on_the_final_authentication_message(ctx):
    m = Enc(concat([NB_I, Enc(A, KBS)]), KBS)
    assert f_prime(Variant.MAX, NB_I, m, ctx) == SecurityLevel.of("A", "B", "S")


def test_eval_bare_atom_is_bottom(ctx):
    assert f_prime(Variant.MAX, NB_I, NB_I, ctx) == BOTTOM


def test_eval_on_the_server_receive(ctx):
    m = Enc(concat([A, U, Enc(B, KAS)]), KBS)
    assert f_prime(Variant.MAX, U, m, ctx) == SecurityLevel.of("A", "B", "S")


def test_eval_over_a_set_is_the_meet(ctx):
    msgs = [Enc(NB_I, KBS), NB_I]
    assert ctx.lattice.meet_all(f_prime(Variant.MAX, NB_I, m, ctx) for m in msgs) == BOTTOM
    assert ctx.lattice.meet_all(f_prime(Variant.MAX, NB_I, m, ctx) for m in []) == TOP


def test_eval_key_position_does_not_expose_the_key(ctx):
    m = Enc(A, KAS)
    assert f_prime(Variant.MAX, KAS, m, ctx) == TOP


def test_f_prime_atom_over_a_variable_is_top(ctx):
    assert f_prime(Variant.MAX, KAB_I, X, ctx) == TOP


def test_f_prime_variable_on_itself_is_bottom(ctx):
    assert f_prime(Variant.MAX, Y, Y, ctx) == BOTTOM


def test_f_prime_variable_in_the_server_receive(ctx):
    m = Enc(concat([A, U, Enc(concat([B, V]), KAS)]), KBS)
    assert f_prime(Variant.MAX, V, m, ctx) == SecurityLevel.of("A", "B", "S")
    assert f_prime(Variant.MAX, U, m, ctx) == SecurityLevel.of("A", "B", "S")


def test_f_prime_multiple_occurrences_combine_by_meet(ctx):
    # one protected occurrence, one exposed occurrence: the meet is bottom
    m = concat([NB_I, Enc(concat([NB_I, A]), KBS)])
    assert f_prime(Variant.MAX, NB_I, m, ctx) == BOTTOM
