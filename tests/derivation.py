"""The paper's derivation of a message, for tests only.

The paper evaluates a target in the message with its variables removed,
keeping only the variable under evaluation when the target is one. The
analyzer evaluates the message as it is; the reference law in
``test_properties.DERIVATION_SUITE`` checks that both give the same level.
"""

from __future__ import annotations

from typing import Optional

from wfcheck.terms import EMPTY, Atom, Concat, Enc, Message, Variable, concat, vars_of


def derive_vars(m: Message, remove: frozenset[Variable]) -> Message:
    """Remove the given variables homomorphically; vanished parts collapse."""
    if m is EMPTY:
        return EMPTY
    if isinstance(m, Variable):
        return EMPTY if m in remove else m
    if isinstance(m, Atom):
        return m
    if isinstance(m, Concat):
        return concat(derive_vars(p, remove) for p in m.parts)
    if isinstance(m, Enc):
        return Enc(derive_vars(m.body, remove), m.key)
    raise TypeError(f"not a message: {m!r}")


def derive(m: Message, keep: Optional[Variable] = None) -> Message:
    """Remove every variable except ``keep``; the whole message may vanish."""
    remove = vars_of(m)
    if keep is not None:
        remove = remove - {keep}
    return derive_vars(m, remove)
