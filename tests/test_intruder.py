"""The bounded active intruder (``tests/intruder.py``) against the corpus.

The intruder must break each corpus protocol that leaks, by the attack its
file describes, and find no leak in either Woo-Lam protocol at two sessions.
wfcheck must agree: it gives no secrecy PASS to a protocol the intruder
breaks, and the intruder breaks no protocol that wfcheck passes.
"""

import pytest

from conftest import CORPUS, CORPUS_STEMS
from intruder import initial_knowledge, search
from wfcheck import Identity, Nonce, load_context, load_narration
from wfcheck.safefun import Variant
from wfcheck.witness import analyze_narration, check_secrecy

SESSIONS = 2

#: the receives by which the intruder learns Na^1, in each protocol that leaks
LEAKS = {
    # B re-encrypts Na for S, and S sends it in the clear
    "fwd": ("B#1 i.1 <- {Na^1}kab", "S#1 i.2 <- {Na^1}kbs"),
    "fwd2": ("B#1 i.1 <- A.{Na^1.A}kab", "S#1 i.2 <- B.{Na^1.A}kbs"),
    # A's own message, reflected back to it, makes it send Na in the clear
    "reflect": ("A#1 i.2 <- {Na^1}kab",),
    "reflect_wrapped": ("A#1 i.2 <- B.{Na^1}kab",),
}

#: the states visited in a full search of each protocol that does not leak
STATES = {"woolam_modified": 1_090, "woolam_original": 11_222}


def _load(stem):
    ctx = load_context(CORPUS / f"{stem}.ctx")
    return load_narration(CORPUS / f"{stem}.proto", ctx), ctx


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_the_intruder_agrees_with_every_corpus_verdict(stem):
    narration, ctx = _load(stem)
    found = search(narration, ctx, SESSIONS, max_states=2 * max(STATES.values()))
    roles, patterns = analyze_narration(narration, ctx)
    passing = [v for v in Variant if all(c.passed for c in check_secrecy(roles, patterns, ctx, v))]
    if stem in LEAKS:
        assert (found.leaked, found.trace) == (Nonce("Na", "1"), LEAKS[stem])
        assert passing == []
    else:
        # no candidate was left untried, so only the sessions bound the search
        assert (found.leaked, found.states, found.cut) == (None, STATES[stem], 0)
        assert passing == list(Variant)


def test_the_intruder_starts_with_what_its_level_admits():
    _, ctx = _load("woolam_modified")
    public = {Identity(p) for p in ("A", "B", "S", "I")}
    # Nb is public and fresh, so each session's copy is known; kab is not
    assert initial_knowledge(ctx, SESSIONS) == public | {
        Nonce("Nb"), Nonce("Nb", "1"), Nonce("Nb", "2"),
    }


def test_a_search_past_its_state_bound_says_so():
    narration, ctx = _load("woolam_original")
    with pytest.raises(RuntimeError, match="more than 100 states"):
        search(narration, ctx, SESSIONS, max_states=100)
