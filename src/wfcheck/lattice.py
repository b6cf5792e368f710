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

from typing import Iterable, NamedTuple, Optional


class SecurityLevel(NamedTuple):
    """An element of the lattice: a principal set, or the symbolic bottom.

    ``authorized is None`` encodes bottom (the full universe). Structural
    equality is meaningful only between canonical values; :class:`Lattice`
    canonicalizes on every operation.
    """

    authorized: Optional[frozenset[str]]

    @classmethod
    def of(cls, *members: str) -> "SecurityLevel":
        return cls(frozenset(members))

    @property
    def is_bottom(self) -> bool:
        return self.authorized is None

    @property
    def is_top(self) -> bool:
        return self.authorized is not None and not self.authorized

    def members(self) -> tuple[str, ...]:
        if self.authorized is None:
            raise ValueError("bottom has no explicit member list")
        return tuple(sorted(self.authorized))

    def __contains__(self, name: str) -> bool:
        return self.authorized is None or name in self.authorized

    def __str__(self):
        if self.is_bottom:
            return "⊥"
        if self.is_top:
            return "⊤"
        return "{" + ",".join(self.members()) + "}"


BOTTOM = SecurityLevel(None)
TOP = SecurityLevel(frozenset())


class Lattice(NamedTuple):
    """Order, meet and join over levels drawn from a fixed principal universe."""

    universe: frozenset[str]

    @classmethod
    def over(cls, *names: str) -> "Lattice":
        return cls(frozenset(names))

    def canon(self, level: SecurityLevel) -> SecurityLevel:
        """Normalize: a proper subset of the universe is kept after one test,
        a set covering the universe collapses to bottom, and a set naming a
        principal outside the universe is an error."""
        if level.authorized is None:
            return BOTTOM
        if level.authorized < self.universe:
            return level
        stray = level.authorized - self.universe
        if stray:
            names = ", ".join(sorted(stray))
            raise ValueError(f"level names principals outside the universe: {names}")
        return BOTTOM

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
