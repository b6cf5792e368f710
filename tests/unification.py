"""Unification with an eagerly rewritten solution, for tests only.

This is the analyzer's former ``unify``: every new binding is applied to
all earlier ones, so the solution is idempotent at every step. The
package's ``unify`` binds lazily and resolves once at the end; the law
``test_properties.law_unify_matches_reference`` checks that both return
the same unifier, or both ``None``, on random terms, and
``test_witness.test_unify_matches_the_reference_on_every_scanned_pair``
on every pair that real candidate-source scans try.

``associative_unifiers`` enumerates unifiers that ``unify`` misses by
matching concatenation parts one by one; the law
``test_witness.test_sources_that_unify_misses_change_no_check`` adds them
as candidate sources.
"""

from __future__ import annotations

from typing import Iterator, Optional

from wfcheck.terms import Atom, Concat, Enc, Message, Variable, apply, concat, unify, vars_of


def is_param(a: Message) -> bool:
    """Renamed copies of role atoms behave as kind-restricted parameters."""
    return isinstance(a, Atom) and a.copy is not None


def reference_unify(left: Message, right: Message) -> Optional[dict]:
    """Most general syntactic unifier of two terms, or None.

    Variables bind to arbitrary terms (with occurs check); parameters bind
    to atoms of the same kind only. When both sides are variables or both
    are parameters, the left one is bound, so unifying a renamed pattern
    against a sent role message orients bindings pattern-to-message.
    Concatenations of unequal length with a variable part are deferred and
    retried as in ``unify``.
    """
    sol: dict = {}
    stack: list[tuple[Message, Message]] = [(left, right)]
    deferred: list[tuple[Message, Message]] = []

    def bind(key, value) -> None:
        one = {key: value}
        for k in list(sol):
            sol[k] = apply(one, sol[k])
        sol[key] = value

    while stack or deferred:
        if not stack:
            compound = any(not isinstance(v, (Atom, Variable)) for v in sol.values())
            if not compound or len(sol) == bound_at_deferral:
                return None
            stack, deferred = deferred, []
            continue
        s, t = stack.pop()
        s = apply(sol, s)
        t = apply(sol, t)
        if s == t:
            continue
        if isinstance(s, Variable) or isinstance(t, Variable):
            var, term = (s, t) if isinstance(s, Variable) else (t, s)
            if var in vars_of(term):
                return None
            bind(var, term)
        elif isinstance(s, Atom) and isinstance(t, Atom):
            if is_param(s) and type(s) is type(t):
                bind(s, t)
            elif is_param(t) and type(t) is type(s):
                bind(t, s)
            else:
                return None
        elif isinstance(s, Concat) and isinstance(t, Concat):
            if len(s.parts) != len(t.parts):
                if not any(isinstance(p, Variable) for p in s.parts + t.parts):
                    return None
                if not deferred:
                    bound_at_deferral = len(sol)
                deferred.append((s, t))
                continue
            stack.extend(zip(s.parts, t.parts))
        elif isinstance(s, Enc) and isinstance(t, Enc):
            stack.append((s.key, t.key))
            stack.append((s.body, t.body))
        else:
            return None
    return sol


def _concats(m: Message) -> Iterator[Concat]:
    """Every concatenation in ``m``, outermost first."""
    if isinstance(m, Concat):
        yield m
        for p in m.parts:
            yield from _concats(p)
    elif isinstance(m, Enc):
        yield from _concats(m.body)
        yield from _concats(m.key)


def associative_unifiers(pattern: Message, send: Message) -> Iterator[dict]:
    """Unifiers of the two terms in which one variable absorbs a block of parts.

    For each variable that is a part of a concatenation on one side, and
    each block of two or more consecutive parts of a concatenation on the
    other side, the variable is bound to the block, ``unify`` solves the two
    instantiated terms, and the unifier with the variable's binding added
    is yielded. Unification modulo associativity is infinitary, so these
    are a sample of the unifiers that associative concatenation allows.
    """
    for one, other in ((pattern, send), (send, pattern)):
        variables = [p for c in _concats(one) for p in c.parts if isinstance(p, Variable)]
        for var in dict.fromkeys(variables):
            for c in _concats(other):
                for i in range(len(c.parts) - 1):
                    for j in range(i + 2, len(c.parts) + 1):
                        block = concat(c.parts[i:j])
                        sigma = unify(apply({var: block}, pattern), apply({var: block}, send))
                        if sigma is not None:
                            yield {**sigma, var: apply(sigma, block)}
