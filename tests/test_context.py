"""Context file loading, level lookup, key ownership."""

import collections
import hashlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    load_context,
    parse_context,
)

from conftest import CORPUS, CORPUS_STEMS, perfbench_gen
from context_reference import reference_parse_context
from deduction import intruder_knowledge
from test_fuzz import TEXTS, _mutate_lines, _mutate_tokens
from test_records import _printed_by_a_fresh_interpreter

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
    # a key is held by exactly the principals its level admits, at bottom by all
    corners = parse_context(
        "principals A, B, I\nkey kp fresh(A) level public\n"
        "key kall fresh(A) level {A,B,I}\nkey kb fresh(A) level {B}\n"
    )
    for p in ("A", "B", "I"):
        assert corners.knows_key(p, SymKey("kp"))
        assert corners.knows_key(p, SymKey("kall"))
    assert not corners.knows_key("A", SymKey("kb"))  # generating a key is not holding it
    assert corners.knows_key("B", SymKey("kb"))
    whole = parse_context("principals A, I\nkey k shared(A,I)\n")  # canonical level ⊥
    assert whole.level_of(SymKey("k")) == BOTTOM
    assert whole.knows_key("A", SymKey("k")) and whole.knows_key("I", SymKey("k"))


def test_challenge_fields(ctx):
    ch = ctx.challenge
    assert (ch.verifier, ch.claimant, ch.step, ch.challenge) == ("B", "A", 5, "Nb")


def test_a_challenge_step_too_long_for_int_is_a_parse_error():
    # int() refuses more than 4300 digits on Python 3.11 and later; the parser
    # refuses them itself, with the same message on every version
    padded = parse_context(WOOLAM_CTX.replace("step=5", "step=" + "0" * 4299 + "5"))
    assert padded.challenge.step == 5
    with pytest.raises(ParseError) as err:
        parse_context(WOOLAM_CTX.replace("step=5", "step=" + "9" * 5000))
    assert str(err.value) == "line 6: step number has more than 4300 digits"


def test_intruder_knowledge_defaults_to_identities(ctx):
    assert set(intruder_knowledge(ctx)) == {Identity(p) for p in "ABSI"}


def test_intruder_knows_directive():
    ctx = parse_context(WOOLAM_CTX + "intruder knows Nb\n")
    assert Nonce("Nb") in intruder_knowledge(ctx)


SECRETS_CTX = """\
principals A, B, I
key kab shared(A,B)
nonce Na fresh(A) level {A,B}
nonce Nc fresh(A) level {A,I}
"""


@pytest.mark.parametrize("name", ["kab", "Na"])
def test_intruder_knowing_a_secret_is_rejected_at_its_line(name):
    with pytest.raises(ParseError) as err:
        parse_context(SECRETS_CTX + f"intruder knows A, {name}\n")
    assert err.value.line == 5
    assert str(err.value).endswith(f"intruder knows {name!r}, but its level {{A,B}} excludes I")


def test_intruder_may_know_what_a_later_declaration_admits():
    ctx = parse_context(
        "principals A, B, I\nintruder knows Nb, Nc\n"
        "nonce Nb level public\nnonce Nc fresh(A) level {A,I}\n"
    )
    assert {Nonce("Nb"), Nonce("Nc")} <= set(intruder_knowledge(ctx))


@pytest.mark.parametrize("extra, line", [
    ("intruder knows Nz\n", 5),
    ("challenge auth verifier=B claimant=A step=1 challenge=Nz\n", 5),
])
def test_checks_after_parsing_name_the_declaring_line(extra, line):
    with pytest.raises(ParseError) as err:
        parse_context(SECRETS_CTX + extra + "# trailing comment\n")
    assert err.value.line == line


@pytest.mark.parametrize("text, line", [
    ("principals A, B, I, 9Z\n", 1),
    ("principals A_1, B, I\n", 1),
    ("principalsZ A, B, I\n", 1),
    (SECRETS_CTX + "intruder knows Nc_7\n", 5),
    (SECRETS_CTX + "intruder knowsNc\n", 5),
    ("principals A, B\nnonce Na level public\n", 1),
], ids=[
    "digit-first", "underscore", "glued-keyword", "intruder-underscore", "intruder-glued",
    "no-intruder",
])
def test_name_lists_hold_comma_separated_names_only(text, line):
    with pytest.raises(ParseError) as err:
        parse_context(text)
    assert err.value.line == line


def test_declared_levels_are_canonical():
    # a level naming the whole universe is public
    ctx = parse_context("principals A, B, I\nnonce Na level {A,B,I}\n")
    assert ctx.level_of(Nonce("Na")) == BOTTOM


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
    with pytest.raises(ParseError) as err:
        parse_context("# preamble\n\n# mid comment\n")
    assert str(err.value) == "context declares no principals"


# Characters that str.splitlines ends a line at; only "\n" ends one, as in a
# narration, so each of them is a space.
LINE_BREAKING_SPACES = ["\f", "\x0b", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("space", LINE_BREAKING_SPACES)
def test_a_comment_runs_to_the_newline(space, ctx, tmp_path):
    path = tmp_path / "spaced.ctx"
    path.write_text(
        WOOLAM_CTX.replace("principals A, B, S, I", f"principals A, B, S, I # page{space}break"),
        encoding="utf-8",
    )
    assert _fields(load_context(path)) == _fields(ctx)


@pytest.mark.parametrize("space", LINE_BREAKING_SPACES)
def test_lines_are_counted_by_newlines(space):
    text = f"principals A, B, I\nnonce Nb{space}level{space}public\nfrobnicate\n"
    with pytest.raises(ParseError) as err:
        parse_context(text)
    assert str(err.value) == "line 3: unrecognized declaration: 'frobnicate'"


def test_digest_is_stable():
    assert parse_context(WOOLAM_CTX).digest == parse_context(WOOLAM_CTX).digest
    assert parse_context(WOOLAM_CTX).digest != parse_context(WOOLAM_CTX + "\n# x\n").digest


CORPUS_CONTEXTS = [(CORPUS / f"{stem}.ctx").read_text(encoding="utf-8") for stem in CORPUS_STEMS]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("text", CORPUS_CONTEXTS, ids=CORPUS_STEMS)
def test_the_digest_is_the_sha256_of_the_utf8_text(text):
    assert parse_context(text).digest == _sha256(text)


@given(st.sampled_from(CORPUS_CONTEXTS), st.text().filter(lambda s: "\n" not in s), st.data())
def test_a_comment_line_of_any_text_is_digested_as_sha256_digests_it(text, comment, data):
    lines = text.split("\n")
    lines.insert(data.draw(st.integers(0, len(lines))), "#" + comment)
    text = "\n".join(lines)
    assert parse_context(text).digest == _sha256(text)


def test_the_digest_is_the_same_without_the_interpreters_own_sha256():
    # an interpreter built without _sha2 (3.12 on) or _sha256 takes hashlib's
    text = CORPUS_CONTEXTS[0]
    probe = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from wfcheck import parse_context\n"
        f"print(parse_context({text!r}).digest, 'hashlib' in sys.modules)"
    )
    assert _printed_by_a_fresh_interpreter(probe) == [_sha256(text), "True"]


def test_every_occurrence_of_a_principal_is_one_identity(ctx):
    assert ctx.resolve_atom("A") is ctx.resolve_atom("A")
    assert ctx.resolve_atom("A") == Identity("A")


# Each line that only the ``match`` parser reads, beside the spacing the
# reference parser needs for the same declaration.
WHITESPACE_VARIANTS = [
    ("key kab shared ( A , B )", "key kab shared(A,B)"),
    ("key kab fresh (A) level{A,B}", "key kab fresh(A) level {A,B}"),
    ("nonce Na fresh( A )level public", "nonce Na fresh(A) level public"),
    ("nonce Na level{ A , B }", "nonce Na level {A,B}"),
    (
        "challenge auth verifier = B claimant = A step = 5 challenge = Nb",
        "challenge auth verifier=B claimant=A step=5 challenge=Nb",
    ),
    ("intruder  knows\tNb", "intruder knows Nb"),
]


def _fields(ctx):
    return ctx.principals, ctx.decls, ctx.challenge, ctx.intruder_knows


@pytest.mark.parametrize("variant, spaced", WHITESPACE_VARIANTS)
def test_whitespace_variants_read_like_the_spaced_line(variant, spaced):
    head = "principals A, B, I\nnonce Nb level public\n"
    with pytest.raises(ParseError):
        reference_parse_context(head + variant + "\n")
    assert _fields(parse_context(head + variant + "\n")) == _fields(parse_context(head + spaced))


@pytest.mark.parametrize("line, message", [
    ("key k_1 shared(A,B)", "malformed key declaration: 'key k_1 shared(A,B)'"),
    ("keyboard x", "malformed key declaration: 'keyboard x'"),
    (
        "nonce Nc fresh(A_1) level public",
        "malformed nonce declaration: 'nonce Nc fresh(A_1) level public'",
    ),
    ("nonce Nc level {A,B}}", "malformed nonce declaration: 'nonce Nc level {A,B}}'"),
    ("nonce Nc level {A B}", "malformed level '{A B}'"),
    ("nonce Nc level {A,Z}", "level names undeclared principal 'Z'"),
    ("nonce Nb level public", "duplicate declaration of 'Nb'"),
    (
        # a digit, but not a decimal one: int() could not read it
        "challenge auth verifier=B claimant=A step=² challenge=Nb",
        "malformed challenge declaration: "
        "'challenge auth verifier=B claimant=A step=² challenge=Nb'",
    ),
    ("intruder knowsNb", "malformed name list: 'intruder knowsNb'"),
    ("principals A", "duplicate principals line"),
    ("frobnicate", "unrecognized declaration: 'frobnicate'"),
])
def test_malformed_lines_keep_the_reference_message(line, message):
    text = "principals A, B, I\nnonce Nb level public\n" + line + "\n"
    for parse in (parse_context, reference_parse_context):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"line 3: {message}"


gen = perfbench_gen()
SEED_CONTEXTS = [TEXTS[key] for key in sorted(TEXTS) if key[1] == "ctx"] + [
    *(case.context for case in gen.random_batch(1, 6)),
    gen.synth_chain(0, 4, True).context,
    WOOLAM_CTX + "intruder knows Nb, A\n",
    SECRETS_CTX + "intruder knows A, Nc\n",
]


def _outcome(parse, text):
    try:
        ctx = parse(text)
    except ParseError as err:
        return err
    return (*_fields(ctx), ctx.digest)


def _respace(text):
    """Each line's words, one space apart, none before ``(`` or around ``=``:
    the spacing the reference parser needs."""
    words = (re.findall(r"\w+|\S", raw.split("#", 1)[0]) for raw in text.split("\n"))
    lines = (" ".join(line) for line in words)
    return "\n".join(re.sub(r" ?(=) ?| (?=\()", r"\1", line) for line in lines)


def test_parser_agrees_with_the_reference():
    """The ``match`` parser accepts what the regex parser accepts, with an equal
    context, and rejects only what it rejects; a context only the ``match``
    parser accepts is one the reference accepts once re-spaced."""
    outcomes = collections.Counter()

    @given(seed=st.sampled_from(SEED_CONTEXTS), data=st.data())
    @settings(max_examples=1000)
    def law(seed, data):
        text = seed
        for _ in range(data.draw(st.integers(1, 3))):
            text = data.draw(st.sampled_from([_mutate_tokens, _mutate_lines]))(text, data)
        new = _outcome(parse_context, text)
        ref = _outcome(reference_parse_context, text)
        if not isinstance(ref, ParseError):
            assert new == ref, text
            outcomes["both accept"] += 1
        elif not isinstance(new, ParseError):
            assert new[:4] == _outcome(reference_parse_context, _respace(text))[:4], text
            outcomes["only the match parser accepts"] += 1
        else:
            outcomes["both reject"] += 1

    law()
    assert len(outcomes) == 3, outcomes
