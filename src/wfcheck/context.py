"""The verification context: principals, level assignment, key ownership.

Loaded from a line-oriented text file:

    principals A, B, S, I
    key kas shared(A,S)
    key kab fresh(A) level {A,B,S}
    nonce Nb fresh(B) level public
    challenge auth verifier=B claimant=A step=5 challenge=Nb
    intruder knows Na, kxy          # optional

``shared(X,Y)`` implies level {X,Y} and owners {X,Y}. ``fresh(P)`` marks a
value generated per session by P. ``level public`` means bottom. The
principal universe must contain the intruder identity ``I``. Identities
need no declaration beyond the principals line: they are always public.
"""

from __future__ import annotations

import hashlib
import re
from typing import NamedTuple, Optional, Union

from .errors import NotAKey, ParseError, UnknownAtom
from .lattice import BOTTOM, Lattice, SecurityLevel
from .terms import Atom, Identity, Nonce, SymKey, Variable


class Decl(NamedTuple):
    """A declared key or nonce: its atom, its level, the principals holding
    it (keys only) and the principal generating it per session, if any."""

    atom: Atom
    level: SecurityLevel
    owners: frozenset[str] = frozenset()
    fresh_by: Optional[str] = None


class AuthChallenge(NamedTuple):
    """Who authenticates whom, at which narration step, on which atom."""

    verifier: str
    claimant: str
    step: int
    challenge: str


INTRUDER_NAME = "I"


class VerificationContext:
    def __init__(
        self,
        principals: tuple[str, ...],
        decls: dict[str, Decl],
        challenge: Optional[AuthChallenge] = None,
        intruder_knows: tuple[str, ...] = (),
        digest: str = "",
    ):
        if INTRUDER_NAME not in principals:
            raise ParseError(f"the principal universe must include the intruder {INTRUDER_NAME!r}")
        self.principals = principals
        self.decls = decls
        self.challenge = challenge
        self.intruder_knows = intruder_knows
        self.digest = digest
        self.lattice = Lattice.over(*principals)

    # -- atom construction -------------------------------------------------

    def is_principal(self, name: str) -> bool:
        return name in self.principals

    def resolve_atom(self, name: str) -> Atom:
        """Map a declared base name to its atom; raises UnknownAtom otherwise."""
        if name in self.principals:
            return Identity(name)
        if name in self.decls:
            return self.decls[name].atom
        raise UnknownAtom(f"atom {name!r} is not declared in the context")

    def intruder_knowledge(self) -> tuple[Atom, ...]:
        identities = tuple(Identity(p) for p in self.principals)
        extra = tuple(self.resolve_atom(n) for n in self.intruder_knows)
        return identities + extra

    # -- declarations ---------------------------------------------------------

    def _decl(self, a: Atom) -> Decl:
        """The declaration of a key or nonce atom, of the same kind.

        Session tags and rename indices are ignored: every copy of a
        declared atom matches its declaration.
        """
        decl = self.decls.get(a.name) if isinstance(a, (SymKey, Nonce)) else None
        if decl is None or type(decl.atom) is not type(a):
            raise UnknownAtom(f"{a} is not a declared key or nonce")
        return decl

    def level_of(self, target: Union[Atom, Variable]) -> SecurityLevel:
        """Declared level; identities and variables are public by default."""
        if isinstance(target, (Variable, Identity)):
            return BOTTOM
        return self._decl(target).level

    def reverse_key(self, k: Atom) -> Atom:
        """The decryption key for ``k``; symmetric keys are self-inverse."""
        if not isinstance(k, SymKey):
            raise NotAKey(f"{k} is not a key atom")
        self._decl(k)
        return k

    def knows_key(self, agent: str, k: Atom) -> bool:
        if not isinstance(k, SymKey):
            raise NotAKey(f"{k} is not a key atom")
        return agent in self._decl(k).owners

    def fresh_owner(self, a: Atom) -> Optional[str]:
        """The generating principal for session-fresh atoms, else None."""
        decl = self.decls.get(a.name)
        return decl.fresh_by if decl is not None and type(decl.atom) is type(a) else None


# ---------------------------------------------------------------------------
# Context file parser

_LEVEL_RE = re.compile(r"^\{\s*([A-Za-z][A-Za-z0-9]*(?:\s*,\s*[A-Za-z][A-Za-z0-9]*)*)\s*\}$")
_NAME_LIST_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
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


def parse_context(text: str) -> VerificationContext:
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

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("principals"):
            if principals:
                raise ParseError("duplicate principals line", lineno)
            names = _NAME_LIST_RE.findall(line[len("principals"):])
            if not names:
                raise ParseError("principals line declares nobody", lineno)
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
                decls[name] = Decl(SymKey(name), SecurityLevel.of(o1, o2), frozenset({o1, o2}))
            else:
                gen = check_principal(match.group("gen"), lineno)
                level = _parse_level(match.group("level"), principals, lineno)
                # a fresh key is possessed by the parties authorized to learn it
                owners = frozenset(principals) if level.is_bottom else level.authorized
                decls[name] = Decl(SymKey(name), level, owners, fresh_by=gen)
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
            names = _NAME_LIST_RE.findall(line[len("intruder knows"):])
            intruder_knows.extend((name, lineno) for name in names)
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


def load_context(path) -> VerificationContext:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_context(fh.read())
