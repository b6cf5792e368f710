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

_MISSING, _REPEATED = object(), object()  # a value that is absent, or a key written again
_VARIANTS = tuple(v.value for v in Variant)
# ``json.loads`` hands each object over as its tuple of (key, value) pairs
_JSON_KINDS = {tuple: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "an integer", float: "a number", type(None): "null"}


class _Mismatch(ValueError):
    """A JSON value unlike its declared type, or absent, or under a repeated key;
    enclosing readers add the path."""

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
        if self.got is _REPEATED:
            return f"malformed report: {where} is repeated"
        got = _JSON_KINDS.get(type(self.got), "a value")
        if type(self.got) in (str, bool, int, float):
            got += f" ({self.got!r})"
        return f"malformed report: {where} must be {self.expected}, not {got}"


def _unknown(pairs: tuple, known) -> _Mismatch:
    """The first of an object's ``pairs``, in document order, whose key repeats an
    earlier one or is a key the writer never writes there. Readers ask once they
    have read every key they know and found more pairs than that."""
    seen: set = set()
    for key, value in pairs:
        if key not in known or key in seen:
            bad = _Mismatch("absent", _REPEATED if key in seen else value)
            bad.path.append("." + key)  # not under(): a key such as "[0]" is no index
            return bad
        seen.add(key)


def _written(write: Callable, value) -> str:
    """The text that ``write`` puts for ``value``."""
    out: list[str] = []
    write(out.append, value, {})
    return "".join(out)


def _string_text() -> Callable[[str], str]:
    """json.dumps's C string encoder; loading json would add its reader."""
    try:
        from _json import encode_basestring
    except ImportError:  # an interpreter without the C module
        from json.encoder import encode_basestring
    return encode_basestring


@cache
def _codec(tp, pad: str = "") -> tuple[Callable, Callable]:
    """The writer and the reader of the declared type ``tp``, side by side.

    The writer ``write(put, value, memo)`` puts the value at indent ``pad`` as
    ``json.dumps(value, indent=2, ensure_ascii=False)`` would write it. Every
    piece is put as written, so no large partial string is built. The reader
    ``read(data, memo)`` turns JSON data, each object a tuple of its (key, value)
    pairs, back into a value. It checks what it reads and raises :class:`_Mismatch`,
    a ``ValueError``, naming the path of the first value that the writer would not
    write (:func:`_unknown` names a repeated or unknown key). ``memo`` is a dict that
    one call makes for all its writes or all its reads: a set level or an
    array of strings is written once per indent and value (a level never
    equals a tuple of strings), and a set level is read and checked once
    per member list.
    """
    inner, close = pad + "  ", "\n" + pad + "}"
    if tp in (str, bool, int):
        bools = {True: "true", False: "false"}
        text = {str: _string_text(), bool: bools.get, int: int.__repr__}[tp]
        expected = _JSON_KINDS[tp]

        def scalar(data, memo):
            if type(data) is not tp:  # exact: a boolean is no integer here
                raise _Mismatch(expected, data)
            return data

        return lambda put, value, memo: put(text(value)), scalar
    if get_origin(tp) is Union:  # Optional[X] is Union[X, None]
        write, read = _codec(get_args(tp)[0], pad)
        return (
            lambda put, value, memo: put("null") if value is None else write(put, value, memo),
            lambda data, memo: None if data is None else read(data, memo),
        )
    if get_origin(tp) is tuple:
        item = get_args(tp)[0]
        write_item, read_item = _codec(item, inner)
        first, sep, end = "[\n" + inner, ",\n" + inner, "\n" + pad + "]"
        strings = _string_text() if item is str else None

        def write(put, value, memo):
            if not value:
                return put("[]")
            if strings is not None:  # one join, over the C string encoder, per distinct list
                text = memo.get((pad, value))
                if text is None:
                    text = memo[pad, value] = first + sep.join(map(strings, value)) + end
                return put(text)
            lead = first
            for v in value:
                put(lead)
                write_item(put, v, memo)
                lead = sep
            put(end)

        def read(data, memo):
            if type(data) is not list:
                raise _Mismatch("an array", data)
            if strings is not None:
                try:
                    "".join(data)  # one C-level test that every item is a string
                    return tuple(data)
                except TypeError:
                    pass  # the item loop names the first item that is not
            out = []
            for i, value in enumerate(data):
                try:
                    out.append(read_item(value, memo))
                except _Mismatch as bad:
                    raise bad.under(f"[{i}]")
            return tuple(out)

        return write, read
    if tp is SecurityLevel:  # a set level lists its members after its kind
        write_names, read_names = _codec(tuple[str, ...], inner)
        head = "{\n" + inner + '"kind": '
        bottom, top = (f'{head}"{kind}"{close}' for kind in ("bottom", "top"))
        listed = f'{head}"set",\n{inner}"members": '

        def write(put, value, memo):
            if not value.authorized:  # bottom (None) or top (empty)
                return put(bottom if value.authorized is None else top)
            text = memo.get((pad, value))
            if text is None:
                text = memo[pad, value] = listed + _written(write_names, value.members()) + close
            put(text)

        def read(pairs, memo):
            if type(pairs) is not tuple:
                raise _Mismatch("an object", pairs)
            data = dict(pairs)
            kind = data.get("kind", _MISSING)
            if kind == "bottom" or kind == "top":
                if len(pairs) > 1:
                    raise _unknown(pairs, ("kind",))
                return BOTTOM if kind == "bottom" else TOP
            if kind != "set":
                raise _Mismatch('"bottom", "top" or "set"', kind).under("kind")
            try:
                names = read_names(data.get("members", _MISSING), memo)
            except _Mismatch as bad:
                raise bad.under("members")
            level = memo.get(names)
            if level is None:
                authorized = frozenset(names)
                if not authorized or tuple(sorted(authorized)) != names:  # empty is written as top
                    bad = _Mismatch("one or more distinct names in sorted order", list(names))
                    raise bad.under("members")
                level = memo[names] = SecurityLevel(authorized)
            if len(pairs) > 2:
                raise _unknown(pairs, ("kind", "members"))
            return level

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
        readers = [
            (name, codecs[name][1], hints[name] if hints[name] in (str, bool, int) else None)
            for name in tp._fields
        ]
        # each stored verdict must be the derived one, as its writer writes it
        verdicts = [(name, codecs[name][0]) for name in derived]

        def write(put, value, memo):
            for lead, get, write_field in writers:
                put(lead)
                write_field(put, get(value), memo)
            put(close)

        def read(pairs, memo):
            if type(pairs) is not tuple:
                raise _Mismatch("an object", pairs)
            data = dict(pairs)
            values = []
            for name, read_field, scalar in readers:
                value = data.get(name, _MISSING)
                if type(value) is not scalar:  # a scalar of its exact type needs no reading
                    try:
                        value = read_field(value, memo)
                    except _Mismatch as bad:
                        raise bad.under(name)
                values.append(value)
            value = tp._make(values)
            for name, write_verdict in verdicts:
                stored, want = data.get(name, _MISSING), getattr(value, name)
                if type(stored) is not type(want) or stored != want:
                    raise _Mismatch(_written(write_verdict, want), stored).under(name)
            if len(pairs) > len(names):  # a key repeated, or one the writer never writes
                raise _unknown(pairs, names)
            return value

        return write, read
    raise TypeError(f"no JSON codec for {tp!r}")


def render_json(report: AnalysisReport) -> str:
    """The report as JSON in one pass, through the writer of its type's codec:
    records as objects, tuples as arrays. Text runs never build it, and no
    run loads ``json`` to write."""
    out: list[str] = []  # small pieces joined once: no large partial strings to copy
    _codec(AnalysisReport)[0](out.append, report, {})
    out.append("\n")
    return "".join(out)


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
    import json  # imported here so text runs never load it
    try:
        doc = json.loads(text, object_pairs_hook=tuple)
    except RecursionError:
        raise ValueError("malformed report: nested too deeply to read") from None
    if type(doc) is tuple and (version := dict(doc).get("version")) != SCHEMA_VERSION:
        raise ValueError(f"unsupported report version {version!r}")
    report = _codec(AnalysisReport)[1](doc, {})
    if report.variant not in _VARIANTS:
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

    bounds = ("received_bound", "declared", "lower_bound")
    verdicts: dict[tuple, bool] = {}  # each distinct triple of levels is checked once
    for i, c in enumerate(report.checks):
        triple = (c.received_bound, c.declared, c.lower_bound)
        passed = verdicts.get(triple)
        if passed is None:
            for name, level in zip(bounds, triple):
                proper(level, name, f"[{i}]", "checks")
            passed = verdicts[triple] = lattice.leq(
                lattice.meet(c.declared, c.received_bound), c.lower_bound
            )
        if c.passed != passed:
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
