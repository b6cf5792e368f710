"""Security levels 101.

A level is the set of principals allowed to learn a value. The ordering
runs opposite to set inclusion: fewer readers = higher level. Bottom is
"everybody" (public data), top is "nobody".
"""

from wfcheck import BOTTOM, TOP, Lattice, SecurityLevel

lat = Lattice.over("A", "B", "S", "I")

kas = SecurityLevel.of("A", "S")        # a key shared by A and the server
kab = SecurityLevel.of("A", "B", "S")   # a session key distributed to three parties

print("universe:", sorted(lat.universe))
print()
print(f"level of the long-term key : {kas}")
print(f"level of the session key   : {kab}")
print()

# the long-term key is at least as secret as the session key
print("kab <= kas ?", lat.leq(kab, kas))
print("kas <= kab ?", lat.leq(kas, kab))

# meet = union of readers (less secret), join = intersection (more secret)
print("meet:", lat.meet(kas, SecurityLevel.of("B", "S")))
print("join:", lat.join(kas, SecurityLevel.of("B", "S")))

# bottom absorbs meets; the full universe *is* bottom
full = SecurityLevel.of("A", "B", "S", "I")
print("meet with bottom:", lat.meet(kas, BOTTOM))
print("full universe canonicalizes to bottom:", lat.canon(full) == BOTTOM)
print("strictly above bottom?", not lat.canon(kab).is_bottom, "/", not lat.canon(full).is_bottom)
print("top bounds everything:", lat.leq(kas, TOP))
