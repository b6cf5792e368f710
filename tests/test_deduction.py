"""Bounded intruder closure."""

import pytest

from wfcheck import Enc, Identity, Nonce, SymKey, concat, parse_context

from deduction import DepthExceeded, derives, saturate


A, B = Identity("A"), Identity("B")
K = SymKey("kas")
NB = Nonce("Nb")


@pytest.fixture(scope="module")
def ctx():
    return parse_context(
        "principals A, B, S, I\nkey kas shared(A,S)\nkey kbs shared(B,S)\n"
        "nonce Nb fresh(B) level public\n"
    )


def test_decryption_with_a_held_key(ctx):
    closure = saturate([Enc(A, K), K], 1, ctx)
    assert A in closure


def test_perfect_encryption_withholds_the_body(ctx):
    closure = saturate([Enc(A, K)], 2, ctx)
    assert A not in closure


def test_pairing_at_depth_one(ctx):
    closure = saturate([A, B], 1, ctx)
    assert concat([A, B]) in closure and concat([B, A]) in closure


def test_unpairing_is_free(ctx):
    assert derives([concat([A, NB])], NB, 1, ctx)
    assert derives([Enc(NB, SymKey("kbs")), SymKey("kbs")], NB, 1, ctx)
    assert not derives([Enc(NB, SymKey("kbs"))], NB, 3, ctx)


def test_encryption_with_known_keys(ctx):
    closure = saturate([A, K], 1, ctx)
    assert Enc(A, K) in closure


def test_depth_limit(ctx):
    with pytest.raises(DepthExceeded):
        saturate([A], 4, ctx)


def test_knowledge_sets_must_be_ground(ctx):
    from wfcheck import Variable

    with pytest.raises(ValueError):
        saturate([Variable("X")], 1, ctx)


def test_monotone_in_the_knowledge(ctx):
    small = saturate([A], 1, ctx)
    large = saturate([A, B], 1, ctx)
    assert small <= large


def test_idempotent_at_fixpoint(ctx):
    once = saturate([A, B, K], 1, ctx)
    again = saturate(once, 0, ctx)
    assert once == again
