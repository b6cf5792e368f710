"""Bounded intruder-deduction closure, for property tests only.

The intruder controls the network: from a set of ground messages it can
unpair concatenations, decrypt whenever it holds the decryption key, and
build new pairs and encryptions from anything it knows. Decomposition is
free; the depth parameter bounds how many rounds of construction are
applied, which keeps the closure finite. The static decision procedure
never consults this module.
"""

from __future__ import annotations

from itertools import product
from typing import FrozenSet, Iterable

from wfcheck import AnalysisError, VerificationContext
from wfcheck.terms import (
    Atom, Concat, Enc, Identity, Message, SymKey, concat, format_message, vars_of,
)

MAX_DEPTH = 3


class DepthExceeded(AnalysisError):
    """Requested closure depth is above the configured maximum."""


KnowledgeSet = FrozenSet[Message]


def intruder_knowledge(ctx: VerificationContext) -> tuple[Atom, ...]:
    """Every principal's identity, then the atoms of the ``intruder knows`` lines."""
    identities = tuple(Identity(p) for p in ctx.principals)
    return identities + tuple(ctx.resolve_atom(n) for n in ctx.intruder_knows)


def _decompose(known: set[Message], ctx: VerificationContext) -> None:
    """Close under unpairing and decryption with held keys (free operations)."""
    changed = True
    while changed:
        changed = False
        for m in list(known):
            if isinstance(m, Concat):
                for p in m.parts:
                    if p not in known:
                        known.add(p)
                        changed = True
            elif isinstance(m, Enc) and isinstance(m.key, SymKey):
                if ctx.reverse_key(m.key) in known and m.body not in known:
                    known.add(m.body)
                    changed = True


def saturate(
    messages: Iterable[Message],
    depth: int,
    ctx: VerificationContext,
    max_depth: int = MAX_DEPTH,
) -> KnowledgeSet:
    """Everything the intruder can infer with at most ``depth`` construction rounds."""
    if depth > max_depth:
        raise DepthExceeded(f"closure depth {depth} exceeds the configured maximum {max_depth}")
    known: set[Message] = set()
    for m in messages:
        if vars_of(m):
            raise ValueError(f"knowledge sets hold ground messages only: {format_message(m)}")
        known.add(m)
    _decompose(known, ctx)
    for _ in range(depth):
        snapshot = list(known)
        keys = [k for k in snapshot if isinstance(k, SymKey)]
        new: set[Message] = set()
        for s, t in product(snapshot, snapshot):
            new.add(concat([s, t]))
        for body, key in product(snapshot, keys):
            new.add(Enc(body, key))
        known |= new
        _decompose(known, ctx)
    return frozenset(known)


def derives(
    messages: Iterable[Message],
    goal: Message,
    depth: int,
    ctx: VerificationContext,
    max_depth: int = MAX_DEPTH,
) -> bool:
    """Whether the goal lies in the bounded closure of the given messages."""
    return goal in saturate(messages, depth, ctx, max_depth=max_depth)
