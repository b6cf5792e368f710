"""Security levels as sets of authorized principals.

A level is the set of principals allowed to learn a value, ordered by
reverse inclusion: the smaller the set, the more secret the value. The
bottom element stands for the whole principal universe (public data) and
the top element for the empty set (nobody may learn it). Meet is set
union, join is set intersection.

Bottom is kept symbolic so that "strictly above bottom" is decidable
without enumerating the universe; a concrete set covering the declared
universe canonicalizes to bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True, order=True)
class PrincipalId:
    """A named protocol participant. The intruder is a principal like any other."""

    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("principal name must be nonempty")

    def __str__(self):
        return self.name


def _as_principals(members: Iterable) -> frozenset[PrincipalId]:
    out = set()
    for m in members:
        out.add(m if isinstance(m, PrincipalId) else PrincipalId(str(m)))
    return frozenset(out)


@dataclass(frozen=True)
class SecurityLevel:
    """An element of the lattice: a principal set, or the symbolic bottom.

    ``authorized is None`` encodes bottom (the full universe). Structural
    equality is meaningful only between canonical values; :class:`Lattice`
    canonicalizes on every operation.
    """

    authorized: Optional[frozenset[PrincipalId]]

    @classmethod
    def bottom(cls) -> "SecurityLevel":
        return cls(None)

    @classmethod
    def top(cls) -> "SecurityLevel":
        return cls(frozenset())

    @classmethod
    def of(cls, *members) -> "SecurityLevel":
        return cls(_as_principals(members))

    @property
    def is_bottom(self) -> bool:
        return self.authorized is None

    @property
    def is_top(self) -> bool:
        return self.authorized is not None and not self.authorized

    def members(self) -> tuple[PrincipalId, ...]:
        if self.authorized is None:
            raise ValueError("bottom has no explicit member list")
        return tuple(sorted(self.authorized))

    def __iter__(self) -> Iterator[PrincipalId]:
        return iter(self.members())

    def __contains__(self, item) -> bool:
        p = item if isinstance(item, PrincipalId) else PrincipalId(str(item))
        if self.authorized is None:
            return True
        return p in self.authorized

    def __str__(self):
        if self.is_bottom:
            return "bot"
        if self.is_top:
            return "top"
        return "{" + ",".join(p.name for p in self.members()) + "}"


BOTTOM = SecurityLevel.bottom()
TOP = SecurityLevel.top()


@dataclass(frozen=True)
class Lattice:
    """Order, meet and join over levels drawn from a fixed principal universe."""

    universe: frozenset[PrincipalId]

    @classmethod
    def over(cls, *names) -> "Lattice":
        return cls(_as_principals(names))

    def canon(self, level: SecurityLevel) -> SecurityLevel:
        """Normalize: a set covering the universe collapses to bottom."""
        if level.authorized is None:
            return BOTTOM
        stray = level.authorized - self.universe
        if stray:
            names = ", ".join(sorted(p.name for p in stray))
            raise ValueError(f"level names principals outside the universe: {names}")
        if level.authorized >= self.universe:
            return BOTTOM
        return level

    def leq(self, a: SecurityLevel, b: SecurityLevel) -> bool:
        """a is below-or-equal b: b's authorized set is contained in a's."""
        a, b = self.canon(a), self.canon(b)
        if a.is_bottom:
            return True
        if b.is_bottom:
            return False
        return b.authorized <= a.authorized

    def meet(self, a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
        """Greatest lower bound: union of authorized sets."""
        a, b = self.canon(a), self.canon(b)
        if a.is_bottom or b.is_bottom:
            return BOTTOM
        return self.canon(SecurityLevel(a.authorized | b.authorized))

    def join(self, a: SecurityLevel, b: SecurityLevel) -> SecurityLevel:
        """Least upper bound: intersection of authorized sets."""
        a, b = self.canon(a), self.canon(b)
        if a.is_bottom:
            return b
        if b.is_bottom:
            return a
        return SecurityLevel(a.authorized & b.authorized)

    def meet_all(self, levels: Iterable[SecurityLevel]) -> SecurityLevel:
        """Meet of all levels, each distinct level met once (meet is idempotent)."""
        acc = TOP
        for lv in dict.fromkeys(levels):
            acc = self.meet(acc, lv)
        return acc

    def above_bottom(self, level: SecurityLevel) -> bool:
        """Strictly above bottom, i.e. not equal to the full universe."""
        return not self.canon(level).is_bottom

    def equal(self, a: SecurityLevel, b: SecurityLevel) -> bool:
        return self.canon(a) == self.canon(b)
