"""Finite groupoids, bisections and circle 2-cocycles."""

import random
from fractions import Fraction

import numpy as np

from fellsem.angles import Angle
from fellsem.generators import standard_groupoids
from fellsem.groupoid import (FiniteGroupoid, TwoCocycle, action_from_cocycle,
                              all_bisections, bisection_semigroup, coboundary_cocycles,
                              cyclic_group, enumerate_cocycles, germ_recovers_groupoid,
                              pair_groupoid, transitive_z2_groupoid, verify_cocycle,
                              verify_groupoid, z2_nontrivial_cocycle)
from fellsem.action import (germ_groupoid, germ_map_check, verify_consequences,
                            verify_twisted_action)


def test_standard_groupoid_shapes():
    assert cyclic_group(2).m == 2
    assert cyclic_group(3).m == 3
    assert pair_groupoid([0, 1]).m == 4
    assert pair_groupoid([0, 1, 2]).m == 9
    assert transitive_z2_groupoid().m == 8


def test_pair_groupoid_structure():
    G = pair_groupoid([0, 1])
    for a in G.arrows():
        for b in G.arrows():
            if G.composable(a, b):
                c = G.mul(a, b)
                assert G.src[c] == G.src[b] and G.rng[c] == G.rng[a]
    assert sum(G.is_unit(a) for a in G.arrows()) == 2


def test_bisection_semigroup_sizes():
    # pair groupoid bisections = partial injections of the point set
    for G, expected in [(cyclic_group(2), 3), (cyclic_group(3), 4),
                        (pair_groupoid([0, 1]), 7), (pair_groupoid([0, 1, 2]), 34),
                        (transitive_z2_groupoid(), 17)]:
        S, biss, wide = bisection_semigroup(G)
        assert S.n == expected
        assert len(biss) == S.n


def test_all_bisections_of_pair2():
    G = pair_groupoid([0, 1])
    assert len(all_bisections(G)) == 7


def test_cocycle_families():
    assert len(enumerate_cocycles(cyclic_group(2), roots=4)) == 4
    assert len(enumerate_cocycles(cyclic_group(3), roots=4)) == 16
    assert len(enumerate_cocycles(pair_groupoid([0, 1]), roots=4)) == 4
    for tau in enumerate_cocycles(cyclic_group(3), roots=4):
        assert verify_cocycle(cyclic_group(3), tau)[0]


def test_coboundaries_are_cocycles():
    G = transitive_z2_groupoid()
    taus = coboundary_cocycles(G, roots=2)
    assert len(taus) == 16
    for tau in taus[:4]:
        assert verify_cocycle(G, tau)[0]


def test_nontrivial_z2_cocycle_is_not_a_sign_coboundary():
    # tau(g,g) = -1 is not a coboundary of a +-1 valued function; it only
    # trivializes after adjoining i, which is what makes the twist visible
    G, tau = z2_nontrivial_cocycle()
    assert verify_cocycle(G, tau)[0]
    cobs = coboundary_cocycles(G, roots=2)
    assert all(any(tau(a, b) != cb(a, b) for a, b in G.composable_pairs())
               for cb in cobs)
    cobs4 = coboundary_cocycles(G, roots=4)
    assert any(all(tau(a, b) == cb(a, b) for a, b in G.composable_pairs())
               for cb in cobs4)


def test_cocycle_action_matches_cocycle_pointwise():
    G = cyclic_group(3)
    tau = enumerate_cocycles(G, roots=4)[-1]
    S, biss, wide = bisection_semigroup(G)
    A = action_from_cocycle(G, tau, S, biss, wide)
    bis_index = {frozenset(b): i for i, b in enumerate(biss)}
    for a, b in G.composable_pairs():
        s, t = bis_index[frozenset({a})], bis_index[frozenset({b})]
        y = G.rng[G.mul(a, b)]
        assert A.omega[(s, t)](y) == tau(a, b)
    assert verify_twisted_action(A)[0]
    assert verify_consequences(A)[0]


def test_cocycles_over_one_bisection_family_share_a_frame():
    G = pair_groupoid([0, 1, 2])
    S, biss, wide = bisection_semigroup(G)
    one, two = enumerate_cocycles(G, roots=2)[-2:]
    A = action_from_cocycle(G, one, S, biss, wide)
    assert action_from_cocycle(G, two, S, biss, wide).frame is A.frame
    # a second bisection semigroup gets its own frame, and G keeps only that
    S2, biss2, _ = bisection_semigroup(G)
    B = action_from_cocycle(G, one, S2, biss2, wide)
    assert B.frame is not A.frame and B.frame.S is S2
    assert G._frame[0][0] is S2
    assert (B.W == A.W).all() and B.N == A.N


def test_germ_recovery_on_groups_and_pairs():
    for G in [cyclic_group(2), cyclic_group(3), pair_groupoid([0, 1])]:
        tau = TwoCocycle.trivial(G)
        S, biss, wide = bisection_semigroup(G)
        ok, mapping = germ_recovers_groupoid(G, tau, S, biss, wide)
        assert ok, mapping
        assert len(set(mapping.values())) == G.m


def _pair2_germ_map():
    """The germ groupoid of the trivially twisted pair groupoid on two
    points, the arrays of its recovering map and of the groupoid, and the
    map's germ-to-arrow mapping."""
    G = pair_groupoid([0, 1])
    S, biss, wide = bisection_semigroup(G)
    GG = germ_groupoid(action_from_cocycle(G, TwoCocycle.trivial(G), S, biss, wide))
    ok, mapping = germ_recovers_groupoid(G, TwoCocycle.trivial(G), S, biss, wide)
    assert ok
    image = np.array([*mapping.values(), -1])[GG.of]
    return GG, image, G, mapping


def test_germ_map_check_rejects_a_map_joining_two_germs():
    GG, image, G, mapping = _pair2_germ_map()
    # send the germs 0 and 1 to the arrow of germ 0
    joined = np.where(GG.of == 1, mapping[0], image)
    ok, detail = germ_map_check(GG, joined, G.src_i, G.rng_i, G.mul_table)
    assert ok is False and detail == ("arrow-count", GG.arrow_count, G.m)


def test_germ_map_check_rejects_a_map_splitting_a_germ():
    GG, image, G, mapping = _pair2_germ_map()
    # the two members of one germ sent to different arrows
    g = int(np.argmax(np.bincount(GG.of[GG.of >= 0]) >= 2))
    t, x = np.argwhere(GG.of == g)[0]
    assert int((GG.of == g).sum()) >= 2
    other = next(a for a in G.arrows() if a != mapping[g])
    split = image.copy()
    split[t, x] = other
    ok, detail = germ_map_check(GG, split, G.src_i, G.rng_i, G.mul_table)
    assert ok is False and detail == ("not-well-defined", g, sorted({mapping[g], other}))


def test_germ_map_check_rejects_moved_endpoints():
    GG, image, G, _ = _pair2_germ_map()
    shifted = (G.src_i + 1) % len(G.objects)
    ok, detail = germ_map_check(GG, image, shifted, G.rng_i, G.mul_table)
    assert ok is False and detail == ("endpoints", 0)


def test_germ_map_check_rejects_a_wrong_product():
    GG, image, G, mapping = _pair2_germ_map()
    # swap two non-unit arrows in every product that yields either
    a, b = (a for a in G.arrows() if not G.is_unit(a))
    mul = G.mul_table.copy()
    mul[G.mul_table == a], mul[G.mul_table == b] = b, a
    ok, detail = germ_map_check(GG, image, G.src_i, G.rng_i, mul)
    g, h = next((g, h) for g in range(GG.arrow_count) for h in range(GG.arrow_count)
                if GG.rng(h) == GG.src(g) and G.mul_table[mapping[g], mapping[h]] in (a, b))
    assert ok is False and detail == ("composition", (g, h))


def test_groupoid_json_round_trip():
    G = pair_groupoid([0, 1])
    back = FiniteGroupoid.from_json(G.to_json())
    verify_groupoid(back)
    assert back.m == G.m and len(back.objects) == len(G.objects)


def test_coboundary_reads_angles_as_turns():
    # angles.Angle is the turn of its argument, so a coboundary of Angle
    # values is the coboundary of their Fractions
    rng = random.Random(4)
    for G in standard_groupoids().values():
        for roots in (2, 4, 6):
            k = {a: rng.randrange(roots) for a in G.arrows() if not G.is_unit(a)}
            one = TwoCocycle.coboundary(G, {a: Angle(Fraction(v, roots)) for a, v in k.items()})
            two = TwoCocycle.coboundary(G, {a: Fraction(v, roots) for a, v in k.items()})
            assert one.N == two.N and np.array_equal(one.K, two.K) and verify_cocycle(G, one)[0]
            assert all(type(one(a, b)) is Fraction and one(a, b) == two(a, b)
                       for a, b in G.composable_pairs())
