"""Secrecy and authentication verdicts, side by side.

The modified Woo-Lam binds the initiator's identity to the challenge
inside the server's re-encryption, so the verifier's final message
evaluates to a level that contains the claimant: accepted. The original
version transports the bare challenge, the claimant's identity never
reaches the verifier's protected neighborhood, and the analysis refuses
to certify it (exit code 2 on the command line).
"""

import pathlib

from wfcheck import analyze, load_context, load_narration
from wfcheck.safefun import Variant

corpus = pathlib.Path(__file__).resolve().parent.parent / "corpus"

for stem in ("woolam_modified", "woolam_original"):
    ctx = load_context(corpus / f"{stem}.ctx")
    narr = load_narration(corpus / f"{stem}.proto", ctx)
    report = analyze(narr, ctx, Variant.MAX, "auth")
    auth = report.auth
    print(f"== {narr.name} ==")
    print(f"   secrecy bound checks : {'all pass' if report.secrecy_passed else 'VIOLATED'} "
          f"({len(report.checks)} targets)")
    print(f"   challenge message    : {auth.message}")
    print(f"   F'({auth.challenge}) = {auth.level}")
    print(f"   claimant {auth.claimant} present : {auth.claimant_present}")
    print(f"   strictly above bottom: {auth.above_bottom}")
    verdict = "correct with respect to authentication" if report.overall_passed else "no decision"
    print(f"   verdict              : {verdict}")
    print()
