"""The bounded active intruder (``tests/intruder.py``) against the corpus.

The intruder must break each corpus protocol that leaks, by the attack its
file describes, and find no leak in either Woo-Lam protocol at two sessions.
wfcheck must agree: it gives no secrecy PASS to a protocol the intruder
breaks, and the intruder breaks no protocol that wfcheck passes.

For authentication the intruder judges aliveness: it must break original
Woo-Lam by the Pi attack, and break no protocol to which wfcheck gives an
authentication PASS: modified Woo-Lam at two sessions, and the sound
synthetic chains of up to four chain steps at one session.
"""

import pytest

from conftest import CORPUS, CORPUS_STEMS, perfbench_gen
from intruder import aliveness, initial_knowledge, secrecy
from wfcheck import (
    Identity, Nonce, SymKey, challenge_check, extract_roles, load_context, load_narration,
    parse_context, parse_narration,
)
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


def _texts(stem):
    """The context and narration texts of a corpus protocol."""
    return (CORPUS / f"{stem}.ctx").read_text(), (CORPUS / f"{stem}.proto").read_text()


@pytest.mark.parametrize("stem", CORPUS_STEMS)
def test_the_intruder_agrees_with_every_corpus_verdict(stem):
    narration, ctx = _load(stem)
    found = secrecy(narration, ctx, SESSIONS, max_states=2 * max(STATES.values()))
    roles, patterns = analyze_narration(narration, ctx)
    passing = [v for v in Variant if all(c.passed for c in check_secrecy(roles, patterns, ctx, v))]
    if stem in LEAKS:
        assert (found.reached, found.trace) == (Nonce("Na", "1"), LEAKS[stem])
        assert passing == []
    else:
        # no candidate was left untried, so only the sessions bound the search
        assert (found.reached, found.states, found.cut) == (None, STATES[stem], 0)
        assert passing == list(Variant)


def test_the_intruder_starts_with_what_its_level_admits():
    _, ctx = _load("woolam_modified")
    public = {Identity(p) for p in ("A", "B", "S", "I")}
    # Nb is public and fresh, so each session's copy is known; kab is not
    assert initial_knowledge(ctx, ("1", "2")) == public | {
        Nonce("Nb"), Nonce("Nb", "1"), Nonce("Nb", "2"),
    }


def test_a_search_past_its_state_bound_says_so():
    narration, ctx = _load("woolam_original")
    with pytest.raises(RuntimeError, match="more than 100 states"):
        secrecy(narration, ctx, SESSIONS, max_states=100)


def as_intruder(context_text: str):
    """The context with the intruder's key ``kis`` declared, shared with S,
    and the leaf substitution of the intruder's session: ``I`` for the
    challenge's claimant, and ``kis`` for the long-term key that the
    claimant shares with S."""
    ctx = parse_context(context_text + "\nkey kis shared(I,S)\n")
    claimant = ctx.challenge.claimant
    [key] = [
        decl.atom for decl in ctx.decls.values()
        if isinstance(decl.atom, SymKey) and decl.fresh_by is None and claimant in decl.level
    ]
    assert ctx.level_of(key).authorized == {claimant, "S"}
    return ctx, {Identity(claimant): Identity("I"), key: ctx.resolve_atom("kis")}


def authenticated(narration, ctx) -> list[Variant]:
    """The variants under which wfcheck gives the challenge an authentication PASS."""
    roles = extract_roles(narration, ctx)
    return [v for v in Variant if challenge_check(roles, ctx, v, ctx.challenge).passed]


#: the receives by which an instance of B in original Woo-Lam finishes while
#: no instance of A runs: the Pi attack (Abadi and Needham, 1996). The
#: intruder, as itself, passes B#1's nonce to B#x under its own key kis, and
#: S#x re-encrypts it under kbs; B#1 accepts that as A's answer.
PI_ATTACK = (
    "B#1 i.1 <- A", "B#1 i.3 <- A", "B#2 i.1 <- A", "B#2 i.3 <- A", "B#x i.1 <- I",
    "B#x i.3 <- {Nb^1}kis", "S#x i.4 <- {I.{Nb^1}kis}kbs", "B#1 i.5 <- {Nb^1}kbs",
)


def test_the_intruder_breaks_the_aliveness_of_original_woolam():
    context_text, protocol_text = _texts("woolam_original")
    ctx, intruder_as = as_intruder(context_text)
    narration = parse_narration(protocol_text, ctx)
    found = aliveness(narration, ctx, intruder_as, SESSIONS)
    assert (found.reached, found.trace, found.states) == ("B#1", PI_ATTACK, 27)
    assert authenticated(narration, ctx) == []


def check_no_aliveness_attack(context_text: str, protocol_text: str, sessions: int, states: int):
    """wfcheck gives the challenge an authentication PASS (under MAX and N;
    EK selects the decryption key alone, whose level names no claimant), and a
    full search of ``sessions`` sessions plus the intruder's, ``states``
    states with no candidate left untried, finds no aliveness attack."""
    ctx, intruder_as = as_intruder(context_text)
    narration = parse_narration(protocol_text, ctx)
    assert authenticated(narration, ctx) == [Variant.MAX, Variant.N]
    found = aliveness(narration, ctx, intruder_as, sessions, max_states=2 * states)
    assert (found.reached, found.states, found.cut) == (None, states, 0), found.trace


def test_the_intruder_finds_no_aliveness_attack_on_modified_woolam():
    # two sessions (10,322 states) run as their own CI step: tests/slow_intruder.py
    check_no_aliveness_attack(*_texts("woolam_modified"), 1, 356)


#: the states of a one-session aliveness search of ``synth_chain(seed, steps,
#: sound=True)``, by (steps, seed). A two-step chain has one round, so every
#: seed gives the same protocol; a four-step chain has two, so a seed picks one
#: of two round orders. Seed 1 gives the other order, whose search (14,089
#: states) is in tests/slow_intruder.py.
SOUND_CHAINS = {(2, 0): 582, (4, 0): 2_793}


@pytest.mark.parametrize("steps, seed", SOUND_CHAINS)
def test_a_sound_chain_authentication_pass_survives_the_intruder(steps, seed):
    case = perfbench_gen().synth_chain(seed, steps, sound=True)
    check_no_aliveness_attack(case.context, case.protocol, 1, SOUND_CHAINS[steps, seed])
