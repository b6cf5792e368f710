"""The two bounds, computed step by step for the modified Woo-Lam.

On a receive we ask: which identities are *confirmed* around the atom?
That is the upper bound: evaluate the atom in the received message (its
unverified variables never count as identities). On a send we ask: which
identities *could* anyone have smuggled into this shape through a
variable? That is the lower bound: unify the sent message with every
generated encryption pattern, instantiate, evaluate, and take the meet.

A protocol is accepted when, for every atom of every send, the lower
bound dominates the declared level met with the received upper bound:
nothing gets less secret by traveling through the protocol.
"""

import pathlib

from wfcheck import (
    Evaluation,
    SymKey,
    Variable,
    analyze_narration,
    candidate_sources,
    f_prime,
    format_message,
    load_context,
    load_narration,
    lower_bound,
)
from wfcheck.safefun import Variant
from wfcheck.witness import sources_for_target

corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ctx = load_context(corpus / "woolam_modified.ctx")
narr = load_narration(corpus / "woolam_modified.proto", ctx)
roles, patterns = analyze_narration(narr, ctx)

MAX = Variant.MAX
evaluation = Evaluation(MAX, ctx)  # one memo for the whole walkthrough
kab_i = SymKey("kab", session="i")
initiator = roles[1]   # the initiator's full role
server = roles[5]      # the server's role

print("== the initiator's session key ==")
received = initiator.steps[1].payload
sent = initiator.steps[2].payload
print(f"received {format_message(received)}  ->  F'({format_message(kab_i)}) =",
      f_prime(MAX, kab_i, received, ctx))
print(f"sent     {format_message(sent)}")
sent_sources = candidate_sources(sent, patterns)
for src in sent_sources:
    print("   candidate source:", src.description)
print("   lower bound =", lower_bound(evaluation, kab_i, sent, sent_sources))
print("   declared    =", ctx.level_of(kab_i))
print()

print("== the server's unknowns ==")
recv, send = server.steps[0].payload, server.steps[1].payload
send_sources = candidate_sources(send, patterns)
for var in (Variable("U"), Variable("V")):
    name = format_message(var)
    print(f"target {name}:")
    print("   upper bound on", format_message(recv), "=", f_prime(MAX, var, recv, ctx))
    print("   sources of", format_message(send), "carrying it:")
    carried = [src for src, _ in sources_for_target(var, send_sources)]
    for src in send_sources:
        marker = "  " if src in carried else "  (pinned, skipped)"
        print("     ", src.description, marker)
    print("   lower bound =", lower_bound(evaluation, var, send, send_sources))
