"""The verification context: principals, level assignment, key ownership.

Loaded from a line-oriented text file, one of seven declaration forms a
line, ``#`` to the end of a line a comment:

    principals A, B, S, I
    key kas shared(A,S)
    key kab fresh(A) level {A,B,S}
    nonce Nb fresh(B) level public
    nonce Nc level {A,B}
    challenge auth verifier=B claimant=A step=5 challenge=Nb
    intruder knows Na, kxy          # optional

``shared(X,Y)`` implies level {X,Y} and owners {X,Y}. ``fresh(P)`` marks a
value generated per session by P. ``level public`` means bottom. The
principal universe must contain the intruder identity ``I``. Identities
need no declaration beyond the principals line: they are always public.
Words are separated by whitespace; next to punctuation (``( ) , { } =``)
whitespace is optional.
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
_NO_INTRUDER = f"the principal universe must include the intruder {INTRUDER_NAME!r}"


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
            raise ParseError(_NO_INTRUDER)
        self.principals = principals
        self.lattice = Lattice.over(*principals)
        # levels are stored canonical, so every level_of result is canonical
        canon = self.lattice.canon
        self.decls = {name: d._replace(level=canon(d.level)) for name, d in decls.items()}
        self.challenge = challenge
        self.intruder_knows = intruder_knows
        self.digest = digest

    # -- atom construction -------------------------------------------------

    def resolve_atom(self, name: str) -> Atom:
        """Map a declared base name to its atom; raises UnknownAtom otherwise."""
        if name in self.principals:
            return Identity(name)
        if name in self.decls:
            return self.decls[name].atom
        raise UnknownAtom(f"atom {name!r} is not declared in the context")

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
        """Declared level, canonical; identities and variables are public by default."""
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

# a line's words: each run of letters, digits and underscores, and each other
# non-space character; a name in a declaration must be one word that is a name
_WORDS = re.compile(r"\w+|\S").findall
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9]*").fullmatch


def _names(words: list[str]) -> Optional[list[str]]:
    """The names of ``A, B, ...`` split into words; None if the words are not such a list."""
    names = words[::2]
    if names and words[1::2] == [","] * (len(names) - 1) and all(map(_NAME, names)):
        return names
    return None


def _is_level(words: list[str]) -> bool:
    """Whether the words are ``public``, or braces around anything but a closing brace."""
    return words == ["public"] or (
        words[:1] == ["{"] and words[-1:] == ["}"] and "}" not in words[1:-1]
    )


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

    def check_new(name: str, lineno: int) -> None:
        if name in decls or name in principals:
            raise ParseError(f"duplicate declaration of {name!r}", lineno)

    def parse_level(words: list[str], line: str, lineno: int) -> SecurityLevel:
        """The level of words that pass ``_is_level``."""
        if words == ["public"]:
            return BOTTOM
        names = _names(words[1:-1])
        if names is None:
            raise ParseError(f"malformed level {line[line.index('{'):]!r}", lineno)
        for n in names:
            if n not in principals:
                raise ParseError(f"level names undeclared principal {n!r}", lineno)
        return SecurityLevel.of(*names)

    # only "\n" ends a line, as in a narration; "\f" or U+2028 is a space
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("principals"):
            if principals:
                raise ParseError("duplicate principals line", lineno)
        elif not principals:
            raise ParseError("principals must be declared first", lineno)
        # one case per declaration form; a line that fits none is malformed
        # as the form its text starts with, if any
        match _WORDS(line):
            case ["principals", *words] if names := _names(words):
                if len(set(names)) != len(names):
                    raise ParseError("duplicate principal name", lineno)
                if INTRUDER_NAME not in names:
                    raise ParseError(_NO_INTRUDER, lineno)
                principals = tuple(names)
            case ["intruder", "knows", *words] if names := _names(words):
                intruder_knows.extend((name, lineno) for name in names)
            case ["key", name, "shared", "(", a, ",", b, ")"] if (
                _NAME(name) and _NAME(a) and _NAME(b)
            ):
                check_new(name, lineno)
                a, b = check_principal(a, lineno), check_principal(b, lineno)
                decls[name] = Decl(SymKey(name), SecurityLevel.of(a, b), frozenset({a, b}))
            case ["key", name, "fresh", "(", gen, ")", "level", *words] if (
                _NAME(name) and _NAME(gen) and _is_level(words)
            ):
                check_new(name, lineno)
                gen = check_principal(gen, lineno)
                level = parse_level(words, line, lineno)
                # a fresh key is possessed by the parties authorized to learn it
                owners = frozenset(principals) if level.is_bottom else level.authorized
                decls[name] = Decl(SymKey(name), level, owners, fresh_by=gen)
            case ["nonce", name, "fresh", "(", gen, ")", "level", *words] if (
                _NAME(name) and _NAME(gen) and _is_level(words)
            ):
                check_new(name, lineno)
                gen = check_principal(gen, lineno)
                decls[name] = Decl(Nonce(name), parse_level(words, line, lineno), fresh_by=gen)
            case ["nonce", name, "level", *words] if _NAME(name) and _is_level(words):
                check_new(name, lineno)
                decls[name] = Decl(Nonce(name), parse_level(words, line, lineno))
            case [
                "challenge", "auth", "verifier", "=", v, "claimant", "=", c,
                "step", "=", n, "challenge", "=", atom,
            ] if _NAME(v) and _NAME(c) and n.isdecimal() and _NAME(atom):
                if challenge is not None:
                    raise ParseError("duplicate challenge declaration", lineno)
                v, c = check_principal(v, lineno), check_principal(c, lineno)
                challenge, challenge_line = AuthChallenge(v, c, int(n), atom), lineno
            case _:
                for kind in ("key", "nonce", "challenge"):
                    if line.startswith(kind):
                        raise ParseError(f"malformed {kind} declaration: {line!r}", lineno)
                if line.startswith(("principals", "intruder knows")):
                    raise ParseError(f"malformed name list: {line!r}", lineno)
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
