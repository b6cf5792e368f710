"""Context file loading, level lookup, key ownership."""

import pytest

from wfcheck import (
    BOTTOM,
    Identity,
    Nonce,
    NotAKey,
    ParseError,
    SecurityLevel,
    SymKey,
    UnknownAtom,
    Variable,
    parse_context,
)

WOOLAM_CTX = """\
principals A, B, S, I
key kas shared(A,S)
key kbs shared(B,S)
key kab fresh(A) level {A,B,S}
nonce Nb fresh(B) level public
challenge auth verifier=B claimant=A step=5 challenge=Nb
"""


@pytest.fixture()
def ctx():
    return parse_context(WOOLAM_CTX)


def test_level_of_shared_key(ctx):
    assert ctx.level_of(SymKey("kas")) == SecurityLevel.of("A", "S")


def test_level_of_public_nonce(ctx):
    assert ctx.level_of(Nonce("Nb", session="i")) == BOTTOM


def test_level_of_identity_defaults_to_bottom(ctx):
    assert ctx.level_of(Identity("A")) == BOTTOM
    assert ctx.level_of(Identity("Q", copy=3)) == BOTTOM  # any identity, any copy


def test_level_of_variables_is_bottom(ctx):
    assert ctx.level_of(Variable("X")) == BOTTOM


def test_level_ignores_session_and_copy(ctx):
    assert ctx.level_of(SymKey("kab", session="i", copy=4)) == SecurityLevel.of("A", "B", "S")


def test_level_of_undeclared_atom_fails(ctx):
    with pytest.raises(UnknownAtom):
        ctx.level_of(SymKey("kzz"))


def test_reverse_key_is_involutive(ctx):
    kbs = SymKey("kbs")
    assert ctx.reverse_key(kbs) == kbs
    assert ctx.reverse_key(ctx.reverse_key(kbs)) == kbs


def test_reverse_key_rejects_non_keys(ctx):
    with pytest.raises(NotAKey):
        ctx.reverse_key(Nonce("Nb"))


def test_knows_key(ctx):
    assert ctx.knows_key("S", SymKey("kas"))
    assert not ctx.knows_key("B", SymKey("kas"))
    assert ctx.knows_key("A", SymKey("kab"))  # generator is authorized to know it


def test_challenge_fields(ctx):
    ch = ctx.challenge
    assert (ch.verifier, ch.claimant, ch.step, ch.challenge) == ("B", "A", 5, "Nb")


def test_intruder_knowledge_defaults_to_identities(ctx):
    assert set(ctx.intruder_knowledge()) == {Identity(p) for p in "ABSI"}


def test_intruder_knows_directive():
    ctx = parse_context(WOOLAM_CTX + "intruder knows Nb\n")
    assert Nonce("Nb") in ctx.intruder_knowledge()


def test_universe_must_include_intruder():
    with pytest.raises(ParseError):
        parse_context("principals A, B, S\nkey kas shared(A,S)\n")


def test_missing_level_fails_fast():
    with pytest.raises(ParseError):
        parse_context("principals A, B, I\nkey kxy fresh(A)\n")


def test_undeclared_owner_fails():
    with pytest.raises(ParseError):
        parse_context("principals A, B, I\nkey kas shared(A,Z)\n")


def test_duplicate_declaration_fails():
    with pytest.raises(ParseError):
        parse_context("principals A, B, I\nkey k1 shared(A,B)\nkey k1 shared(A,B)\n")


def test_comments_and_blank_lines_are_ignored(ctx):
    with_comments = "# preamble\n\n" + WOOLAM_CTX.replace(
        "key kbs", "# mid comment\nkey kbs"
    )
    assert parse_context(with_comments).decls.keys() == ctx.decls.keys()


def test_digest_is_stable():
    assert parse_context(WOOLAM_CTX).digest == parse_context(WOOLAM_CTX).digest
    assert parse_context(WOOLAM_CTX).digest != parse_context(WOOLAM_CTX + "\n# x\n").digest
