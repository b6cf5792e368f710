"""Seeded input generators for the wfcheck benchmark (standard library only).

Every generated input is a pair of ``.ctx`` / ``.proto`` texts plus the
answer the analyzer must give. The answers never come from running the
analyzer: each one follows from the shape of the protocol, and the header
comment of the generated narration names the source.

Write a workload's inputs to disk::

    python3 perfbench/gen.py synth-chain --seed 7 --steps 32 --count 4 --out DIR
    python3 perfbench/gen.py random-batch --seed 7 --count 100 --out DIR
"""

from __future__ import annotations

import argparse
import itertools
import pathlib
import random
from dataclasses import asdict, dataclass

PASS_AUTH = "verdict: correct with respect to authentication"
PASS_SECRECY = "verdict: correct with respect to secrecy"
NO_DECISION_SECRECY = "verdict: no decision (the secrecy criterion is sufficient, not necessary)"

WOO_LAM_SOURCE = (
    "Abadi and Needham, 'Prudent engineering practice for cryptographic "
    "protocols' (1996): Woo and Lam's server reply names no claimant and is "
    "flawed; the fix puts the claimant's identity in it ({A.Nb}kbs) and is sound"
)


@dataclass(frozen=True)
class Case:
    """One analyzer input and its known answer."""

    name: str
    context: str
    protocol: str
    variant: str
    expect_exit: int
    expect_verdict: str

    def to_json(self) -> dict:
        return asdict(self)


def _narration(name: str, answer: str, source: str, steps: list[str]) -> str:
    lines = [f"# known answer: {answer}", f"# source: {source}", f"protocol {name}"]
    lines += [f"{i}. {step}" for i, step in enumerate(steps, start=1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# synth-chain: server-mediated nonce transport closed by a Woo-Lam tail

CLIENTS = ("A1", "A2", "A3", "A4")
# Each round uses one pair of this 4-cycle. The multiset of pairs is fixed
# and only the round order depends on the seed, so every seed yields the
# same pattern count and the same amount of work per verdict.
PAIRS = tuple(zip(CLIENTS, CLIENTS[1:] + CLIENTS[:1]))


def synth_chain(seed: int, steps: int, sound: bool) -> Case:
    """``steps`` chain steps (two per round), then five Woo-Lam steps.

    Round j: ``a -> S : {a.b.Nj}kas`` then ``S -> b : {a.Nj}kbs``, with Nj
    fresh to ``a`` at level {a,b,S}. The tail lets A2 authenticate A1 with
    the nonce Nz; the server's final reply is ``{A1.Nz}ka2s`` when sound
    and ``{Nz}ka2s`` when flawed.
    """
    if steps < 2 or steps % 2:
        raise ValueError(f"synth-chain needs an even number of chain steps, got {steps}")
    rounds = steps // 2
    schedule = [PAIRS[j % len(PAIRS)] for j in range(rounds)]
    random.Random(seed).shuffle(schedule)

    ctx = ["principals " + ", ".join(CLIENTS + ("S", "I"))]
    ctx += [f"key k{c.lower()}s shared({c},S)" for c in CLIENTS]
    chain = []
    for j, (a, b) in enumerate(schedule, start=1):
        ctx.append(f"nonce N{j} fresh({a}) level {{{a},{b},S}}")
        chain.append(f"{a} -> S : {{{a}.{b}.N{j}}}k{a.lower()}s")
        chain.append(f"S -> {b} : {{{a}.N{j}}}k{b.lower()}s")
    ctx.append("nonce Nz fresh(A2) level public")
    ctx.append(f"challenge auth verifier=A2 claimant=A1 step={steps + 5} challenge=Nz")
    tail = [
        "A1 -> A2 : A1",
        "A2 -> A1 : Nz",
        "A1 -> A2 : {Nz}ka1s",
        "A2 -> S : {A1.{Nz}ka1s}ka2s",
        "S -> A2 : {A1.Nz}ka2s" if sound else "S -> A2 : {Nz}ka2s",
    ]
    if sound:
        exit_code, verdict = 0, PASS_AUTH
    else:
        exit_code, verdict = 2, "verdict: no decision (claimant A1 not in {A2,S})"
    name = f"Chain{steps}{'Sound' if sound else 'Flawed'}"
    answer = f"exit {exit_code}, {verdict}"
    source = WOO_LAM_SOURCE + "; every Nj travels only under kas and kbs"
    return Case(
        name=name,
        context="\n".join(ctx) + "\n",
        protocol=_narration(name, answer, source, chain + tail),
        variant="max",
        expect_exit=exit_code,
        expect_verdict=verdict,
    )


def synth_chain_cases(seed: int, steps: int, count: int) -> list[Case]:
    """``count`` chain protocols, sound and flawed alternating."""
    rng = random.Random(seed)
    return [synth_chain(rng.getrandbits(32), steps, sound=i % 2 == 0) for i in range(count)]


# ---------------------------------------------------------------------------
# random-batch: small random protocols shaped like the property-test cases

PUBLIC_SOURCE = (
    "every nonce is public and the shared keys only ever encrypt, so the "
    "intruder can learn no atom it is not entitled to"
)
LEAK_SOURCE = (
    "Dolev-Yao: the intruder reads every message, so the first sender's "
    "nonce, sent in the clear at a level that excludes I, is leaked; a "
    "sound criterion must not accept"
)


def _key_name(x: str, y: str) -> str:
    lo, hi = sorted((x, y))
    return f"k{lo.lower()}{hi.lower()}"


def _fmt(term) -> str:
    kind = term[0]
    if kind == "atom":
        return term[1]
    if kind == "cat":
        return ".".join(_fmt(p) for p in term[1])
    return "{" + _fmt(term[1]) + "}" + _key_name(*term[2])


def random_protocol(rng: random.Random, index: int, leak: bool) -> Case:
    """2-3 participants, 2-6 steps, payloads nested two deep.

    With ``leak`` the nonces get secret levels and the first step sends
    its sender's nonce in the clear; without it every nonce is public.
    """
    parts = rng.sample(["A", "B", "C", "D"], rng.randint(2, 3))
    pairs = list(itertools.combinations(sorted(parts), 2))
    keyed = [p for p in pairs if rng.random() < 0.5] or [pairs[0]]
    first = rng.choice(parts)
    ctx = ["principals " + ", ".join(parts + ["S", "I"])]
    ctx += [f"key {_key_name(x, y)} shared({x},{y})" for x, y in keyed]
    for p in parts:
        level = "public"
        if leak:
            members = set(rng.sample(parts + ["S"], rng.randint(1, 3)))
            if p == first:
                members.add(p)
            level = "{" + ",".join(sorted(members)) + "}"
        ctx.append(f"nonce N{p.lower()} fresh({p}) level {level}")

    owned = {p: [k for k in keyed if p in k] for p in parts}
    accessible: dict[str, list] = {p: [] for p in parts}

    def reachable(receiver, term, out):
        out.append(term)
        if term[0] == "enc" and receiver in term[2]:
            reachable(receiver, term[1], out)
        elif term[0] == "cat":
            for part in term[1]:
                reachable(receiver, part, out)

    def payload(sender, depth):
        choices = ["identity", "nonce"]
        if accessible[sender]:
            choices.append("echo")
        if depth > 0:
            choices.append("concat")
            if owned[sender]:
                choices.append("enc")
        kind = rng.choice(choices)
        if kind == "identity":
            return ("atom", rng.choice(parts))
        if kind == "nonce":
            return ("atom", f"N{sender.lower()}")
        if kind == "echo":
            return rng.choice(accessible[sender])
        if kind == "concat":
            return ("cat", [payload(sender, depth - 1) for _ in range(rng.randint(2, 3))])
        return ("enc", payload(sender, depth - 1), rng.choice(owned[sender]))

    steps = []
    for i in range(rng.randint(2, 6)):
        sender = first if i == 0 else rng.choice(parts)
        receiver = rng.choice([p for p in parts if p != sender])
        body = payload(sender, 2)
        if i == 0 and leak:
            body = ("cat", [("atom", f"N{sender.lower()}"), body])
        steps.append(f"{sender} -> {receiver} : {_fmt(body)}")
        got: list = []
        reachable(receiver, body, got)
        accessible[receiver] = accessible[receiver] + got

    if leak:
        exit_code, verdict, source = 2, NO_DECISION_SECRECY, LEAK_SOURCE
    else:
        exit_code, verdict, source = 0, PASS_SECRECY, PUBLIC_SOURCE
    name = f"Rnd{index}"
    return Case(
        name=name,
        context="\n".join(ctx) + "\n",
        protocol=_narration(name, f"exit {exit_code}, {verdict}", source, steps),
        variant=rng.choice(["max", "ek", "n"]),
        expect_exit=exit_code,
        expect_verdict=verdict,
    )


def random_batch(seed: int, count: int) -> list[Case]:
    """``count`` random protocols, public and leaking alternating."""
    rng = random.Random(seed)
    return [random_protocol(rng, i, leak=i % 2 == 1) for i in range(count)]


# ---------------------------------------------------------------------------
# corpus: the two checked-in Woo-Lam variants

CORPUS_ANSWERS = {
    "woolam_modified": (0, PASS_AUTH),
    "woolam_original": (2, "verdict: no decision (claimant A not in {B,S})"),
}


def corpus_cases(root: pathlib.Path) -> list[Case]:
    """The corpus protocols; their answers are the ones in ``WOO_LAM_SOURCE``."""
    cases = []
    for stem, (exit_code, verdict) in CORPUS_ANSWERS.items():
        cases.append(
            Case(
                name=stem,
                context=(root / f"{stem}.ctx").read_text(encoding="utf-8"),
                protocol=(root / f"{stem}.proto").read_text(encoding="utf-8"),
                variant="max",
                expect_exit=exit_code,
                expect_verdict=verdict,
            )
        )
    return cases


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["synth-chain", "random-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, default=2)
    parser.add_argument("--steps", type=int, default=32, help="synth-chain chain steps")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()
    if args.workload == "synth-chain":
        cases = synth_chain_cases(args.seed, args.steps, args.count)
    else:
        cases = random_batch(args.seed, args.count)
    args.out.mkdir(parents=True, exist_ok=True)
    for i, case in enumerate(cases):
        (args.out / f"{i:04d}.ctx").write_text(case.context, encoding="utf-8")
        (args.out / f"{i:04d}.proto").write_text(case.protocol, encoding="utf-8")
        print(f"{i:04d} {case.name} --function {case.variant}: exit {case.expect_exit}")


if __name__ == "__main__":
    main()
