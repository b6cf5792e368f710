"""The context-file parser as a set of regexes, for tests only.

This is the analyzer's former ``parse_context``: one hand-written regex
per declaration form, picked by the line's first word. The package's
``parse_context`` matches each line's words against one ``match`` case
per form; ``test_context.test_parser_agrees_with_the_reference`` checks
that it accepts everything this parser accepts, with an equal result,
and rejects only what this parser rejects.
"""

from __future__ import annotations

import hashlib
import re
from typing import Optional

from wfcheck.context import INTRUDER_NAME, AuthChallenge, Decl, VerificationContext
from wfcheck.errors import ParseError
from wfcheck.lattice import BOTTOM, SecurityLevel
from wfcheck.terms import Nonce, SymKey

_NAMES = r"[A-Za-z][A-Za-z0-9]*(?:\s*,\s*[A-Za-z][A-Za-z0-9]*)*"
_LEVEL_RE = re.compile(rf"^\{{\s*({_NAMES})\s*\}}$")
_NAME_LIST_RE = re.compile(rf"^(?:principals|intruder knows)\s+({_NAMES})$")
_KEY_RE = re.compile(
    r"^key\s+(?P<name>[A-Za-z][A-Za-z0-9]*)\s+"
    r"(?:shared\(\s*(?P<o1>[A-Za-z][A-Za-z0-9]*)\s*,\s*(?P<o2>[A-Za-z][A-Za-z0-9]*)\s*\)"
    r"|fresh\(\s*(?P<gen>[A-Za-z][A-Za-z0-9]*)\s*\)\s+level\s+(?P<level>public|\{[^}]*\}))$"
)
_NONCE_RE = re.compile(
    r"^nonce\s+(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"(?:\s+fresh\(\s*(?P<gen>[A-Za-z][A-Za-z0-9]*)\s*\))?"
    r"\s+level\s+(?P<level>public|\{[^}]*\})$"
)
_CHALLENGE_RE = re.compile(
    r"^challenge\s+auth\s+verifier=(?P<verifier>[A-Za-z][A-Za-z0-9]*)\s+"
    r"claimant=(?P<claimant>[A-Za-z][A-Za-z0-9]*)\s+step=(?P<step>\d+)\s+"
    r"challenge=(?P<challenge>[A-Za-z][A-Za-z0-9]*)$"
)


def _name_list(line: str, lineno: int) -> list[str]:
    """The names after a ``principals`` or ``intruder knows`` keyword."""
    match = _NAME_LIST_RE.match(line)
    if match is None:
        raise ParseError(f"malformed name list: {line!r}", lineno)
    return [n.strip() for n in match.group(1).split(",")]


def _parse_level(text: str, principals: tuple[str, ...], lineno: int) -> SecurityLevel:
    if text == "public":
        return BOTTOM
    match = _LEVEL_RE.match(text)
    if match is None:
        raise ParseError(f"malformed level {text!r}", lineno)
    names = [n.strip() for n in match.group(1).split(",")]
    for n in names:
        if n not in principals:
            raise ParseError(f"level names undeclared principal {n!r}", lineno)
    return SecurityLevel.of(*names)


def reference_parse_context(text: str) -> VerificationContext:
    principals: tuple[str, ...] = ()
    decls: dict[str, Decl] = {}
    challenge: Optional[AuthChallenge] = None
    challenge_line: Optional[int] = None
    # each name the intruder knows, with the line that says so
    intruder_knows: list[tuple[str, int]] = []

    def check_principal(name: str, lineno: int) -> str:
        if name not in principals:
            raise ParseError(f"undeclared principal {name!r}", lineno)
        return name

    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("principals"):
            if principals:
                raise ParseError("duplicate principals line", lineno)
            names = _name_list(line, lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate principal name", lineno)
            principals = tuple(names)
            continue
        if not principals:
            raise ParseError("principals must be declared first", lineno)
        if line.startswith("key"):
            match = _KEY_RE.match(line)
            if match is None:
                raise ParseError(f"malformed key declaration: {line!r}", lineno)
            name = match.group("name")
            if name in decls or name in principals:
                raise ParseError(f"duplicate declaration of {name!r}", lineno)
            if match.group("o1"):
                o1 = check_principal(match.group("o1"), lineno)
                o2 = check_principal(match.group("o2"), lineno)
                decls[name] = Decl(SymKey(name), SecurityLevel.of(o1, o2))
            else:
                gen = check_principal(match.group("gen"), lineno)
                level = _parse_level(match.group("level"), principals, lineno)
                decls[name] = Decl(SymKey(name), level, fresh_by=gen)
            continue
        if line.startswith("nonce"):
            match = _NONCE_RE.match(line)
            if match is None:
                raise ParseError(f"malformed nonce declaration: {line!r}", lineno)
            name = match.group("name")
            if name in decls or name in principals:
                raise ParseError(f"duplicate declaration of {name!r}", lineno)
            gen = match.group("gen")
            if gen is not None:
                gen = check_principal(gen, lineno)
            level = _parse_level(match.group("level"), principals, lineno)
            decls[name] = Decl(Nonce(name), level, fresh_by=gen)
            continue
        if line.startswith("challenge"):
            match = _CHALLENGE_RE.match(line)
            if match is None:
                raise ParseError(f"malformed challenge declaration: {line!r}", lineno)
            if challenge is not None:
                raise ParseError("duplicate challenge declaration", lineno)
            challenge = AuthChallenge(
                verifier=check_principal(match.group("verifier"), lineno),
                claimant=check_principal(match.group("claimant"), lineno),
                step=int(match.group("step")),
                challenge=match.group("challenge"),
            )
            challenge_line = lineno
            continue
        if line.startswith("intruder knows"):
            intruder_knows.extend((name, lineno) for name in _name_list(line, lineno))
            continue
        raise ParseError(f"unrecognized declaration: {line!r}", lineno)

    if not principals:
        raise ParseError("context declares no principals")
    if challenge is not None and challenge.challenge not in decls:
        raise ParseError(f"challenge atom {challenge.challenge!r} is not declared", challenge_line)
    for name, lineno in intruder_knows:
        if name in principals:
            continue
        if name not in decls:
            raise ParseError(f"intruder knowledge names undeclared atom {name!r}", lineno)
        # secrecy verdicts hold for an intruder that starts with public atoms only
        level = decls[name].level
        if INTRUDER_NAME not in level:
            raise ParseError(f"intruder knows {name!r}, but its level {level} excludes I", lineno)

    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return VerificationContext(
        principals=principals,
        decls=decls,
        challenge=challenge,
        intruder_knows=tuple(name for name, _ in intruder_knows),
        digest=digest,
    )
