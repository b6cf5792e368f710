"""Report assembly and rendering (human-readable text and versioned JSON).

The text layout follows the two-bound presentation: for every checked
target of a send step it shows the upper bound computed on the receives,
the candidate sources with their unifiers, the lower bound on the send and
the comparison. Reports store a step's verdict beside its levels and derive
every other verdict from them; reading a JSON report checks each stored
verdict against its levels. Each declared type has one JSON codec, its
writer and reader side by side, built from one read of its type hints.
Identical inputs render byte-identically.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from typing import Callable, NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

from . import witness
from .context import INTRUDER_NAME, VerificationContext
from .errors import ChallengeNotReceived
from .lattice import BOTTOM, TOP, Lattice, SecurityLevel
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
        out.append(f"         upper bound on receives F' = {c.received_bound}")
        out.append(f"         declared level = {c.declared}")
        if c.from_patterns:
            if c.sources:
                out.append("         candidate sources:")
                for s in c.sources:
                    out.append(f"           {s}")
            else:
                out.append("         candidate sources: (none carry this target)")
        else:
            out.append("         candidate sources: (unencrypted send, evaluated directly)")
        out.append(f"         lower bound on send = {c.lower_bound}")
        out.append(
            f"         check: {c.lower_bound} ⊒ {c.declared} ⊓ {c.received_bound}: "
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

_MISSING = object()
_JSON_KINDS = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


class _Mismatch(ValueError):
    """A JSON value unlike its declared type; enclosing readers add the path."""

    def __init__(self, expected: str, got):
        super().__init__()
        self.expected = expected
        self.got = got
        self.path: list[str] = []  # innermost part first

    def under(self, *parts: str) -> "_Mismatch":
        """The same mismatch, inside the fields or ``[index]``es named, innermost first."""
        self.path.extend(part if part.startswith("[") else "." + part for part in parts)
        return self

    def __str__(self) -> str:
        where = "".join(reversed(self.path)).lstrip(".") or "the document"
        if self.got is _MISSING:
            return f"malformed report: {where} is missing"
        got = _JSON_KINDS.get(type(self.got), "a value")
        if type(self.got) in (str, bool, int, float):
            got += f" ({self.got!r})"
        return f"malformed report: {where} must be {self.expected}, not {got}"


def _unknown(data: dict, known) -> _Mismatch:
    """The first key of the object ``data`` that the writer never writes there."""
    key = next(key for key in data if key not in known)
    bad = _Mismatch("absent", data[key])
    bad.path.append("." + key)  # not under(): a key such as "[0]" is no index
    return bad


def _written(write: Callable, value) -> str:
    """The text that ``write`` puts for ``value``."""
    out: list[str] = []
    write(out.append, value)
    return "".join(out)


@cache
def _codec(tp, pad: str = "") -> tuple[Callable, Callable]:
    """The writer and the reader of the declared type ``tp``, side by side.

    The writer ``write(put, value)`` puts the value at indent ``pad`` as
    ``json.dumps(value, indent=2, ensure_ascii=False)`` would write it. Every
    piece is put as written, so no large partial string is built. The reader
    ``read(data)`` turns JSON data back into a value. It checks what it reads
    and raises :class:`_Mismatch`, a ``ValueError``, naming the path of the
    first value that the writer would not write.
    """
    inner, close = pad + "  ", "\n" + pad + "}"
    if tp in (str, bool, int):
        try:  # json.dumps's C string encoder: loading json would add its reader
            from _json import encode_basestring
        except ImportError:  # an interpreter without the C module
            from json.encoder import encode_basestring
        bools = {True: "true", False: "false"}
        text = {str: encode_basestring, bool: bools.get, int: int.__repr__}[tp]
        expected = _JSON_KINDS[tp]

        def scalar(data):
            if type(data) is not tp:  # exact: a boolean is no integer here
                raise _Mismatch(expected, data)
            return data

        return lambda put, value: put(text(value)), scalar
    if get_origin(tp) is Union:  # Optional[X] is Union[X, None]
        write, read = _codec(get_args(tp)[0], pad)
        return (
            lambda put, value: put("null") if value is None else write(put, value),
            lambda data: None if data is None else read(data),
        )
    if get_origin(tp) is tuple:
        write_item, read_item = _codec(get_args(tp)[0], inner)
        first, sep, end = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"

        def write(put, value):
            if not value:
                return put("[]")
            lead = first
            for v in value:
                put(lead)
                write_item(put, v)
                lead = sep
            put(end)

        def read(data):
            if type(data) is not list:
                raise _Mismatch("an array", data)
            out = []
            for i, value in enumerate(data):
                try:
                    out.append(read_item(value))
                except _Mismatch as bad:
                    raise bad.under(f"[{i}]")
            return tuple(out)

        return write, read
    if tp is SecurityLevel:  # a set level lists its members after its kind
        write_names, read_names = _codec(tuple[str, ...], inner)
        head = "{\n" + inner + '"kind": '
        bottom, top = (f'{head}"{kind}"{close}' for kind in ("bottom", "top"))
        listed = f'{head}"set",\n{inner}"members": '

        def write(put, value):
            if value.is_bottom or value.is_top:
                return put(bottom if value.is_bottom else top)
            put(listed)
            write_names(put, value.members())
            put(close)

        def read(data):
            if type(data) is not dict:
                raise _Mismatch("an object", data)
            kind = data.get("kind", _MISSING)
            if kind == "bottom" or kind == "top":
                if len(data) > 1:
                    raise _unknown(data, ("kind",))
                return BOTTOM if kind == "bottom" else TOP
            if kind != "set":
                raise _Mismatch('"bottom", "top" or "set"', kind).under("kind")
            try:
                names = read_names(data.get("members", _MISSING))
            except _Mismatch as bad:
                raise bad.under("members")
            authorized = frozenset(names)
            if not authorized or tuple(sorted(authorized)) != names:  # empty is written as top
                bad = _Mismatch("one or more distinct names in sorted order", list(names))
                raise bad.under("members")
            if len(data) > 2:
                raise _unknown(data, ("kind", "members"))
            return SecurityLevel(authorized)

        return write, read
    if hasattr(tp, "_fields"):  # keys are field names, which need no escaping
        # the fields, then the verdicts derived from them, typed by their properties
        hints = get_type_hints(tp)
        derived = getattr(tp, "_derived", ())
        hints.update({name: get_type_hints(getattr(tp, name).fget)["return"] for name in derived})
        names = tp._fields + derived
        codecs = {name: _codec(hints[name], inner) for name in names}
        leads = ["{"] + [","] * (len(names) - 1)
        writers = [
            (f'{lead}\n{inner}"{name}": ', attrgetter(name), codecs[name][0])
            for lead, name in zip(leads, names)
        ]
        readers = [(name, codecs[name][1]) for name in tp._fields]
        # each stored verdict must be the derived one, as its writer writes it
        verdicts = [(name, codecs[name][0]) for name in derived]

        def write(put, value):
            for lead, get, write_field in writers:
                put(lead)
                write_field(put, get(value))
            put(close)

        def read(data):
            if type(data) is not dict:
                raise _Mismatch("an object", data)
            values = []
            for name, read_field in readers:
                try:
                    values.append(read_field(data.get(name, _MISSING)))
                except _Mismatch as bad:
                    raise bad.under(name)
            value = tp._make(values)
            for name, write_verdict in verdicts:
                stored, want = data.get(name, _MISSING), getattr(value, name)
                if type(stored) is not type(want) or stored != want:
                    raise _Mismatch(_written(write_verdict, want), stored).under(name)
            if len(data) > len(names):
                raise _unknown(data, names)
            return value

        return write, read
    raise TypeError(f"no JSON codec for {tp!r}")


def render_json(report: AnalysisReport) -> str:
    """The report as JSON in one pass, through the writer of its type's codec:
    records as objects, tuples as arrays. Text runs never build it, and no
    run loads ``json`` to write."""
    out: list[str] = []  # small pieces joined once: no large partial strings to copy
    _codec(AnalysisReport)[0](out.append, report)
    out.append("\n")
    return "".join(out)


def report_from_json(text: str) -> AnalysisReport:
    """The report ``render_json`` wrote as ``text``; a ``ValueError`` names the path
    of the first value the writer would not write: a wrong type, a key that is no
    field or verdict of its record, a ``bottom`` or ``top`` level with ``members``, set
    ``members`` unsorted, repeated or empty (the empty set is ``top``), an unknown
    variant, ``principals`` repeating a name or lacking ``I``, an ``auth`` claimant or
    verifier not among them, a stored verdict unlike the derived one, a set level not a
    proper subset of ``principals`` (the whole set is bottom), or a step verdict other
    than lower ⊒ declared ⊓ received.
    """
    import json  # imported here so text runs never load it
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ValueError("malformed report: nested too deeply to read") from None
    if type(doc) is dict and doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {doc.get('version')!r}")
    report = _codec(AnalysisReport)[1](doc)
    if report.variant not in [v.value for v in Variant]:
        raise _Mismatch('"max", "ek" or "n"', report.variant).under("variant")
    names = list(report.principals)
    if len(set(names)) != len(names):
        raise _Mismatch("distinct names", names).under("principals")
    if INTRUDER_NAME not in names:
        raise _Mismatch(f"names including the intruder {INTRUDER_NAME!r}", names).under("principals")
    lattice = Lattice.over(*report.principals)

    def proper(level: SecurityLevel, *path: str) -> None:
        if not (level.is_bottom or level.authorized < lattice.universe):
            bad = _Mismatch("a proper subset of the principals", list(level.members()))
            raise bad.under("members", *path)

    for i, c in enumerate(report.checks):
        for name in ("received_bound", "declared", "lower_bound"):
            proper(getattr(c, name), name, f"[{i}]", "checks")
        if c.passed != lattice.leq(lattice.meet(c.declared, c.received_bound), c.lower_bound):
            want = _written(_codec(bool)[0], not c.passed)
            raise _Mismatch(want, c.passed).under("passed", f"[{i}]", "checks")
    if report.auth is not None:
        for name in ("claimant", "verifier"):
            who = getattr(report.auth, name)
            if who not in lattice.universe:
                raise _Mismatch("one of the principals", who).under(name, "auth")
        proper(report.auth.level, "level", "auth")
    return report


def render(report: AnalysisReport, fmt: str = "text") -> str:
    if fmt == "text":
        return render_text(report)
    if fmt == "json":
        return render_json(report)
    raise ValueError(f"unknown format {fmt!r}")
