"""Report assembly and rendering (human-readable text and versioned JSON).

The text layout follows the two-bound presentation: for every checked
target of a send step it shows the upper bound computed on the receives,
the candidate sources with their unifiers, the lower bound on the send and
the comparison. Reports store a step's verdict beside its levels and derive
every other verdict from them; reading a JSON report checks each stored
verdict against its levels. Identical inputs render byte-identically.

The JSON codec lives in ``wfcheck.codec``: each declared type has one, its
writer and reader side by side, built from one read of its type hints.
The first ``render_json`` or ``report_from_json`` call imports it, so a
text run never compiles it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple, Optional

from . import witness
from .context import VerificationContext
from .errors import ChallengeNotReceived
from .lattice import SecurityLevel
from .protocol import Narration, full_roles
from .safefun import Variant
from .terms import format_message
from .witness import AuthCheck, StepCheck, analyze_narration, check_secrecy

SCHEMA_VERSION = 1


class RoleRecord(NamedTuple):
    label: str
    steps: tuple[str, ...]


class AnalysisReport(NamedTuple):
    version: int
    protocol: str
    variant: str
    context_digest: str
    principals: tuple[str, ...]
    roles: tuple[RoleRecord, ...]
    patterns: tuple[str, ...]
    checks: tuple[StepCheck, ...]
    auth: Optional[AuthCheck]

    _derived = ("secrecy_passed", "auth_passed", "overall")  # JSON writes them after the fields

    @property
    def secrecy_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def auth_passed(self) -> Optional[bool]:
        return None if self.auth is None else self.auth.passed

    @property
    def overall_passed(self) -> bool:
        return self.secrecy_passed and (self.auth is None or self.auth.passed)

    @property
    def overall(self) -> str:
        return "pass" if self.overall_passed else "no-decision"


def analyze(
    narration: Narration,
    ctx: VerificationContext,
    variant: Variant = Variant.MAX,
    check: str = "all",
) -> AnalysisReport:
    """Run the selected checks over a narration and assemble the report.

    ``check`` is one of ``secrecy``, ``auth`` or ``all``. Secrecy always
    runs: authentication holds only on top of it. The witness clause runs
    for ``auth``, and for ``all`` whenever the context declares a challenge.
    """
    if check not in ("secrecy", "auth", "all"):
        raise ValueError(f"unknown check {check!r}")
    if check == "auth" and ctx.challenge is None:
        raise ChallengeNotReceived("the context declares no authentication challenge")
    roles, patterns = analyze_narration(narration, ctx)
    checks = check_secrecy(roles, patterns, ctx, variant)
    auth = None
    if check != "secrecy" and ctx.challenge is not None:
        # looked up on the module, where perfbench's tracer wraps it
        auth = witness.challenge_check(roles, ctx, variant, ctx.challenge)
    # a prefix role's step lines are the first lines of its owner's full role
    lines = {owner: role.describe() for owner, role in full_roles(roles).items()}
    return AnalysisReport(
        version=SCHEMA_VERSION,
        protocol=narration.name,
        variant=variant.value,
        context_digest=ctx.digest,
        principals=ctx.principals,
        roles=tuple(RoleRecord(r.label, lines[r.owner][: len(r.steps)]) for r in roles),
        patterns=tuple(map(format_message, patterns)),
        checks=tuple(checks),
        auth=auth,
    )


# ---------------------------------------------------------------------------
# Verdict wording

def _secrecy_line(report: AnalysisReport) -> str:
    if report.secrecy_passed:
        return "secrecy: PASS (every send step respects the bound ordering)"
    failing = [c for c in report.checks if not c.passed]
    spots = ", ".join(f"{c.role} {c.step} {c.target}" for c in failing)
    return f"secrecy: NO DECISION (bound ordering violated at: {spots})"


def _auth_lines(report: AnalysisReport) -> list[str]:
    auth = report.auth
    lines = [
        "authentication:",
        f"  verifier {auth.verifier} authenticates claimant {auth.claimant} "
        f"via challenge {auth.challenge} received at step {auth.step}",
        f"  message m = {auth.message}",
        f"  F'({auth.challenge}, m) = {auth.level}",
        f"  claimant {auth.claimant} in {auth.level}: "
        + ("yes" if auth.claimant_present else "no"),
        "  strictly above ⊥: " + ("yes" if auth.above_bottom else "no"),
    ]
    return lines


def _final_lines(report: AnalysisReport) -> list[str]:
    if report.auth is None:
        if report.secrecy_passed:
            return ["verdict: correct with respect to secrecy"]
        return ["verdict: no decision (the secrecy criterion is sufficient, not necessary)"]
    reasons = []
    if not report.secrecy_passed:
        reasons.append("the secrecy condition failed")
    if not report.auth.claimant_present:
        reasons.append(f"claimant {report.auth.claimant} not in {report.auth.level}")
    if not report.auth.above_bottom:
        reasons.append("the challenge is received in a public state")
    if not reasons:
        return ["verdict: correct with respect to authentication"]
    return [f"verdict: no decision ({'; '.join(reasons)})"]


def render_text(report: AnalysisReport) -> str:
    """The text report. Each distinct level is printed once and each distinct
    list of candidate sources once; their texts are kept for this call only."""
    @cache
    def shown(level: SecurityLevel) -> str:
        return str(level)

    @cache
    def listed(sources: tuple[str, ...]) -> str:
        if not sources:
            return "         candidate sources: (none carry this target)"
        return "\n           ".join(("         candidate sources:",) + sources)

    out: list[str] = []
    out.append(f"protocol {report.protocol}")
    out.append(f"function variant: {report.variant}")
    out.append(f"context digest: sha256:{report.context_digest}")
    out.append("principals: " + ", ".join(report.principals))
    out.append("")
    out.append("generalized roles:")
    for role in report.roles:
        out.append(f"  {role.label}:")
        for line in role.steps:
            out.append(f"    {line}")
    out.append("")
    out.append("encryption patterns:")
    for i, p in enumerate(report.patterns, start=1):
        out.append(f"  P{i}: {p}")
    out.append("")
    out.append("secrecy checks (one per target of each send step):")
    if not report.checks:
        out.append("  (none: the protocol has no send steps)")
    direct = "         candidate sources: (unencrypted send, evaluated directly)"
    for c in report.checks:
        flag = "pass" if c.passed else "FAIL"
        kind = "variable" if c.target_is_variable else "atom"
        upper, declared, lower = shown(c.received_bound), shown(c.declared), shown(c.lower_bound)
        out.append(
            f"  [{flag}] role {c.role} step {c.step} {kind} {c.target}\n"
            f"         upper bound on receives F' = {upper}\n"
            f"         declared level = {declared}\n"
            f"{listed(c.sources) if c.from_patterns else direct}\n"
            f"         lower bound on send = {lower}\n"
            f"         check: {lower} ⊒ {declared} ⊓ {upper}: {flag}"
        )
    out.append("")
    out.append(_secrecy_line(report))
    if report.auth is not None:
        out.extend(_auth_lines(report))
    out.extend(_final_lines(report))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering

@cache
def _codec_module():
    """``wfcheck.codec``, imported by the first JSON write or read so that a
    text run never compiles it. Cached: an import statement in every call
    would cost about 1.3 µs."""
    from . import codec
    return codec


def render_json(report: AnalysisReport) -> str:
    """The report as JSON in one pass, through the writer of its type's codec:
    records as objects, tuples as arrays. Text runs never import the codec,
    and no run loads ``json`` to write."""
    return _codec_module().write_report(report)


def report_from_json(text: str) -> AnalysisReport:
    """The report ``render_json`` wrote as ``text``; a ``ValueError`` names the path
    of the first value the writer would not write: a wrong type, a key repeated in
    one object, a key that is no field or verdict of its record, a ``bottom`` or
    ``top`` level with ``members``, set ``members`` unsorted, repeated or empty (the
    empty set is ``top``), an unknown variant, ``principals`` repeating a name or
    lacking ``I``, an ``auth`` claimant or verifier not among them, a stored verdict
    unlike the derived one, a set level not a proper subset of ``principals`` (the
    whole set is bottom), or a step verdict other than lower ⊒ declared ⊓ received.
    ``json.loads`` hands each object over as its tuple of pairs, through no Python
    hook, so a repeated key reaches the object's reader, which counts the pairs.
    """
    return _codec_module().read_report(text)


def render(report: AnalysisReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")
