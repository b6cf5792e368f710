"""Order, meet and join over principal-set levels."""

import itertools

import pytest

from wfcheck import BOTTOM, TOP, Lattice, SecurityLevel

LAT = Lattice.over("A", "B", "S", "I")


def brute_force_glb(lat, a, b):
    """Largest level below both arguments, by enumerating all levels."""
    candidates = [BOTTOM] + [
        SecurityLevel.of(*combo)
        for n in range(len(lat.universe) + 1)
        for combo in itertools.combinations(sorted(lat.universe), n)
    ]
    below_both = [c for c in candidates if lat.leq(c, a) and lat.leq(c, b)]
    best = below_both[0]
    for c in below_both[1:]:
        if lat.leq(best, c):
            best = c
    assert all(lat.leq(c, best) for c in below_both)
    return lat.canon(best)


def brute_force_lub(lat, a, b):
    candidates = [BOTTOM] + [
        SecurityLevel.of(*combo)
        for n in range(len(lat.universe) + 1)
        for combo in itertools.combinations(sorted(lat.universe), n)
    ]
    above_both = [c for c in candidates if lat.leq(a, c) and lat.leq(b, c)]
    best = above_both[0]
    for c in above_both[1:]:
        if lat.leq(c, best):
            best = c
    assert all(lat.leq(best, c) for c in above_both)
    return lat.canon(best)


def test_leq_smaller_set_is_higher():
    # the key shared by two parties sits above the session key known to three
    assert LAT.leq(SecurityLevel.of("A", "B", "S"), SecurityLevel.of("A", "S"))


def test_leq_bottom_below_everything():
    for level in (TOP, BOTTOM, SecurityLevel.of("A"), SecurityLevel.of("B", "S")):
        assert LAT.leq(BOTTOM, level)


def test_leq_incomparable_sets():
    assert not LAT.leq(SecurityLevel.of("A", "B"), SecurityLevel.of("B", "I"))
    assert not LAT.leq(SecurityLevel.of("B", "I"), SecurityLevel.of("A", "B"))


def test_meet_idempotent():
    lv = SecurityLevel.of("A", "B", "S")
    assert LAT.meet(lv, lv) == lv


def test_meet_matches_brute_force_glb():
    a, b = SecurityLevel.of("A", "S"), SecurityLevel.of("B", "S")
    expected = brute_force_glb(LAT, a, b)
    assert expected == SecurityLevel.of("A", "B", "S")
    assert LAT.meet(a, b) == expected


def test_meet_with_top_is_identity():
    for lv in (BOTTOM, SecurityLevel.of("A"), SecurityLevel.of("B", "S")):
        assert LAT.meet(TOP, lv) == LAT.canon(lv)


def test_meet_with_bottom_is_bottom():
    assert LAT.meet(SecurityLevel.of("A"), BOTTOM) == BOTTOM


def test_join_matches_brute_force_lub():
    a, b = SecurityLevel.of("A", "S"), SecurityLevel.of("B", "S")
    expected = brute_force_lub(LAT, a, b)
    assert expected == SecurityLevel.of("S")
    assert LAT.join(a, b) == expected


def test_join_with_bottom_is_identity():
    for lv in (TOP, SecurityLevel.of("A", "B")):
        assert LAT.join(BOTTOM, lv) == lv


def test_join_idempotent():
    lv = SecurityLevel.of("B", "S")
    assert LAT.join(lv, lv) == lv


def test_full_universe_canonicalizes_to_bottom():
    full = SecurityLevel.of("A", "B", "S", "I")
    assert LAT.canon(full) == BOTTOM


def test_meet_covering_the_universe_collapses_to_bottom():
    assert LAT.meet(SecurityLevel.of("A", "B"), SecurityLevel.of("S", "I")) == BOTTOM


def test_levels_reject_stray_principals():
    with pytest.raises(ValueError):
        LAT.canon(SecurityLevel.of("Z"))


def test_membership_and_display():
    lv = SecurityLevel.of("B", "A")
    assert "A" in lv
    assert "C" not in lv
    assert str(lv) == "{A,B}"
    assert str(BOTTOM) == "⊥" and str(TOP) == "⊤"
