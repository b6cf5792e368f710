"""Report assembly and rendering (human-readable text and versioned JSON).

The text layout follows the two-bound presentation: for every checked
target of a send step it shows the upper bound computed on the receives,
the candidate sources with their unifiers, the lower bound on the send and
the comparison. Reports are plain data; rendering re-derives every verdict
from the recorded levels so that a report can never display a verdict its
numbers do not support. Identical inputs render byte-identically.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from .context import VerificationContext
from .lattice import Lattice, SecurityLevel
from .protocol import Narration
from .safefun import Variant
from .terms import format_message
from .witness import (
    AuthCheck,
    StepCheck,
    check_secrecy,
    check_authentication,
    analyze_narration,
)

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
    secrecy_passed: bool
    auth_passed: Optional[bool]

    @property
    def overall_passed(self) -> bool:
        if self.auth is not None:
            return self.secrecy_passed and bool(self.auth_passed)
        return self.secrecy_passed


def analyze(
    narration: Narration,
    ctx: VerificationContext,
    variant: Variant = Variant.MAX,
    check: str = "all",
) -> AnalysisReport:
    """Run the selected checks over a narration and assemble the report.

    ``check`` is one of ``secrecy``, ``auth`` or ``all``; ``all`` includes
    the authentication clause whenever the context declares a challenge.
    """
    if check not in ("secrecy", "auth", "all"):
        raise ValueError(f"unknown check {check!r}")
    roles, patterns = analyze_narration(narration, ctx)
    want_auth = check == "auth" or (check == "all" and ctx.challenge is not None)
    if want_auth:
        _, auth, secrecy_ok, checks = check_authentication(roles, patterns, ctx, variant)
        auth_passed = auth.passed
    else:
        secrecy_ok, checks = check_secrecy(roles, patterns, ctx, variant)
        auth, auth_passed = None, None
    return AnalysisReport(
        version=SCHEMA_VERSION,
        protocol=narration.name,
        variant=variant.value,
        context_digest=ctx.digest,
        principals=ctx.principals,
        roles=tuple(RoleRecord(r.label, r.describe()) for r in roles),
        patterns=tuple(format_message(p) for p in patterns),
        checks=tuple(checks),
        auth=auth,
        secrecy_passed=secrecy_ok,
        auth_passed=auth_passed,
    )


# ---------------------------------------------------------------------------
# Level serialization

def level_to_json(level: SecurityLevel):
    if level.is_bottom:
        return {"kind": "bottom"}
    if level.is_top:
        return {"kind": "top"}
    return {"kind": "set", "members": list(level.members())}


def level_from_json(data) -> SecurityLevel:
    if data["kind"] == "bottom":
        return SecurityLevel.bottom()
    if data["kind"] == "top":
        return SecurityLevel.top()
    return SecurityLevel.of(*data["members"])


def level_text(level: SecurityLevel) -> str:
    if level.is_bottom:
        return "⊥"
    if level.is_top:
        return "⊤"
    return "{" + ",".join(level.members()) + "}"


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
        f"  F'({auth.challenge}, m) = {level_text(auth.level)}",
        f"  claimant {auth.claimant} in {level_text(auth.level)}: "
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
        reasons.append(
            f"claimant {report.auth.claimant} not in {level_text(report.auth.level)}"
        )
    if not report.auth.above_bottom:
        reasons.append("the challenge is received in a public state")
    if not reasons:
        return ["verdict: correct with respect to authentication"]
    return [f"verdict: no decision ({'; '.join(reasons)})"]


def render_text(report: AnalysisReport) -> str:
    _check_consistency(report)
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
    for c in report.checks:
        flag = "pass" if c.passed else "FAIL"
        kind = "variable" if c.target_is_variable else "atom"
        out.append(f"  [{flag}] role {c.role} step {c.step} {kind} {c.target}")
        out.append(f"         upper bound on receives F' = {level_text(c.received_bound)}")
        out.append(f"         declared level = {level_text(c.declared)}")
        if c.from_patterns:
            if c.sources:
                out.append("         candidate sources:")
                for s in c.sources:
                    out.append(f"           {s}")
            else:
                out.append("         candidate sources: (none carry this target)")
        else:
            out.append("         candidate sources: (unencrypted send, evaluated directly)")
        out.append(f"         lower bound on send = {level_text(c.lower_bound)}")
        out.append(
            f"         check: {level_text(c.lower_bound)} ⊒ "
            f"{level_text(c.declared)} ⊓ {level_text(c.received_bound)}: "
            + ("pass" if c.passed else "FAIL")
        )
    out.append("")
    out.append(_secrecy_line(report))
    if report.auth is not None:
        out.extend(_auth_lines(report))
    out.extend(_final_lines(report))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# JSON rendering

def _to_json(value):
    """JSON data of a report value: records become objects in field order."""
    if isinstance(value, (str, int, type(None))):
        return value
    if isinstance(value, SecurityLevel):
        return level_to_json(value)
    if hasattr(value, "_fields"):  # a record, which is also a tuple
        return {name: _to_json(v) for name, v in zip(value._fields, value)}
    return [_to_json(v) for v in value]


@cache
def _decoder(tp) -> Callable:
    """The function turning JSON data back into a value of the declared type ``tp``."""
    if tp is SecurityLevel:
        return level_from_json
    if get_origin(tp) is tuple:
        item = _decoder(get_args(tp)[0])
        return lambda data: tuple(map(item, data))
    if get_origin(tp) is Union:
        inner = _decoder(get_args(tp)[0])  # Optional[X] is Union[X, None]
        return lambda data: None if data is None else inner(data)
    if hasattr(tp, "_fields"):
        hints = get_type_hints(tp)
        decoders = [(name, _decoder(hints[name])) for name in tp._fields]
        return lambda data: tp(**{name: dec(data[name]) for name, dec in decoders})
    return lambda data: data


def render_json(report: AnalysisReport) -> str:
    _check_consistency(report)
    doc = _to_json(report)
    doc["overall"] = "pass" if report.overall_passed else "no-decision"
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=False) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    doc = json.loads(text)
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {doc.get('version')!r}")
    return _decoder(AnalysisReport)(doc)


def render(report: AnalysisReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")


def _check_consistency(report: AnalysisReport) -> None:
    """Verdicts must be re-derivable from the recorded levels."""
    lattice = Lattice.over(*report.principals)
    for c in report.checks:
        required = lattice.meet(c.declared, c.received_bound)
        if c.passed != lattice.leq(required, c.lower_bound):
            raise AssertionError(f"inconsistent step verdict for {c.role} {c.step} {c.target}")
    if report.secrecy_passed != all(c.passed for c in report.checks):
        raise AssertionError("inconsistent secrecy verdict")
    if report.auth is not None:
        if report.auth.passed != (report.auth.claimant_present and report.auth.above_bottom):
            raise AssertionError("inconsistent authentication verdict")
