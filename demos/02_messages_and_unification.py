"""The message algebra: terms, substitution, unification.

Messages are atoms (identities, nonces, keys), variables standing for
unverified content, flattened concatenations, and symmetric encryptions.
Renamed copies of role atoms (the ``_n`` suffix) act as parameters: they
unify with any concrete atom of the same kind, which is how a sent
message is matched against the protocol's generated patterns.
"""

from wfcheck import (
    Enc,
    Identity,
    Nonce,
    SymKey,
    Variable,
    apply,
    concat,
    format_message,
    format_substitution,
    rename_apart,
    unify,
    vars_of,
)
from wfcheck.terms import leaves

A, B = Identity("A"), Identity("B")
kas = SymKey("kas")
kab_i = SymKey("kab", session="i")
nb_i = Nonce("Nb", session="i")
Y = Variable("Y")

sent = Enc(concat([B, kab_i]), kas)
print("a sent message  :", format_message(sent))
print("its atoms       :", [format_message(t) for t in leaves(sent)])

received = Enc(concat([A, nb_i, Y]), SymKey("kbs"))
print("a received one  :", format_message(received))
print("its variables   :", sorted(map(format_message, vars_of(received))))
print()

# renaming apart produces the pattern copy used for source matching
pattern = rename_apart(sent, 1)
print("renamed pattern :", format_message(pattern))

sigma = unify(pattern, sent)
print("unifier         :", format_substitution(sigma))
print("instantiated    :", format_message(apply(sigma, pattern)))
print()

# variables absorb whole components; parameters only same-kind atoms
blob = Enc(concat([A, Variable("X")]), kas)
other = Enc(concat([A, Enc(B, SymKey("kbs"))]), kas)
print("variable vs component:", format_substitution(unify(blob, other)))
print("nonce parameter vs identity:", unify(rename_apart(nb_i, 7), A))
print("occurs check:", unify(Variable("X"), Enc(Variable("X"), kas)))
