"""Grammar fuzz: mutated corpus inputs end in exit 0, 2 or 3, never a crash.

Each example takes one corpus protocol and its context, applies a few
token or line mutations to one of the two files and runs the CLI under
every ``--function`` variant. Hypothesis derandomizes from the source
text, so the examples are the same on every run.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wfcheck.cli import main

from conftest import CORPUS

STEMS = ("woolam_modified", "woolam_original")
TEXTS = {
    (stem, kind): (CORPUS / f"{stem}.{kind}").read_text(encoding="utf-8")
    for stem in STEMS
    for kind in ("proto", "ctx")
}
TOKEN_RE = re.compile(r"\s+|\w+|[^\w\s]")
CORPUS_LINES = sorted({line for text in TEXTS.values() for line in text.splitlines()})
# every token of the corpus, plus fragments the grammar gives a meaning to
VOCABULARY = sorted(
    {tok for text in TEXTS.values() for tok in TOKEN_RE.findall(text) if not tok.isspace()}
    | {"", "\n", "{", "}", "ε", "?", "^", "_", "-", ">", "#", "(", ")", ",", ".", ":",
       "0", "99", "level", "public", "fresh", "shared", "é"}
)


def _mutate_tokens(text, data):
    toks = TOKEN_RE.findall(text)
    i = data.draw(st.integers(0, len(toks) - 1))
    op = data.draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
    if op == "delete":
        del toks[i]
    elif op == "duplicate":
        toks.insert(i, toks[i])
    elif op == "replace":
        toks[i] = data.draw(st.sampled_from(VOCABULARY))
    elif i + 1 < len(toks):
        toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return "".join(toks)


def _mutate_lines(text, data):
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1))
    op = data.draw(st.sampled_from(["delete", "duplicate", "insert", "swap"]))
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "insert":
        lines.insert(i, data.draw(st.sampled_from(CORPUS_LINES)))
    else:
        j = data.draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


@pytest.mark.parametrize("kind", ["proto", "ctx"])
def test_mutated_corpus_inputs_never_crash(kind, tmp_path):
    proto, ctx = tmp_path / "fuzz.proto", tmp_path / "fuzz.ctx"

    @given(stem=st.sampled_from(STEMS), data=st.data())
    @settings(max_examples=300)
    def fuzz(stem, data):
        files = {k: TEXTS[(stem, k)] for k in ("proto", "ctx")}
        for _ in range(data.draw(st.integers(1, 3))):
            mutate = data.draw(st.sampled_from([_mutate_tokens, _mutate_lines]))
            files[kind] = mutate(files[kind], data)
        proto.write_text(files["proto"], encoding="utf-8")
        ctx.write_text(files["ctx"], encoding="utf-8")
        for function in ("max", "ek", "n"):
            args = ["--protocol", str(proto), "--context", str(ctx), "--function", function]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(args)
            assert code in (0, 2, 3), (function, files[kind])

    fuzz()
