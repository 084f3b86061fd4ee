"""Bundles built from actions and from twisted groupoids."""

import random
from math import lcm

import numpy as np
import pytest

from fellsem import bundle
from fellsem.action import NOT_ANGLE, OUTSIDE, widen
from fellsem.algebra import convolution_algebra, germ_algebra
from fellsem.bundle import (BadMultiplierFamily, Bundle, NotSaturated, SectionBundle,
                            build_bundle, canonical_multipliers, check_multiplier_family,
                            classify_bundle, extract_action, roundtrip_check,
                            verify_fell_bundle)
from fellsem.action import gauge_transform, verify_twisted_action
from fellsem.generators import (busby_smith_z2, cocycle_action, five_element_action,
                                mutation_corpus, random_gauge, random_valid_action)
from fellsem.groupoid import (TwoCocycle, bisection_semigroup, cyclic_group,
                              pair_groupoid, z2_nontrivial_cocycle)

from dense import ONE, Angle, as_complex, origin, point_mass, tables


def test_busby_bundle_axioms(busby, rng):
    B = build_bundle(busby)
    ok, bad = verify_fell_bundle(B, rng=rng)
    assert ok, bad


def test_five_element_bundle_axioms(five, rng):
    B = build_bundle(five)
    ok, bad = verify_fell_bundle(B, rng=rng)
    assert ok, bad


def test_action_bundles_are_saturated_regular_semi_abelian(full_i2):
    info = classify_bundle(build_bundle(full_i2))
    assert info["saturated"] and info["semi_abelian"]
    assert all(info["regular"].values())


def test_busby_product_carries_the_twist(busby):
    B = tables(build_bundle(busby))
    g = 1  # the order-two element
    f = point_mass(B.carrier(g), 0)
    prod = B.mul(g, g, f, f)
    assert prod(0) == Angle("1/2")
    star = B.star(g, f)
    assert star(0) == Angle("1/2")  # conj(omega(g,g)) = conj(-1) = -1


def test_roundtrip_is_exact(busby, five, full_i2):
    for A in (busby, five, full_i2):
        ok, diff = roundtrip_check(A)
        assert ok, diff


def test_roundtrip_exact_on_gauged_actions(rng):
    for _ in range(5):
        A = random_valid_action(rng)
        ok, diff = roundtrip_check(A)
        assert ok, diff


def test_roundtrip_rejects_two_points_conjugated_to_one(full_i2, monkeypatch):
    # the swap s of I_2 with its star rows sending both points of fiber s
    # to 0, and the products (s, s) sending both to 0 against u_s*: the
    # bundle stays saturated and semi-abelian, and conjugation by u_s takes
    # both points of fiber s*s to 0.  roundtrip_check builds no Frame, so
    # the extraction itself must reject the map
    s = full_i2.S.index_of("{0>1,1>0}")
    T = tables(build_bundle(full_i2))
    T.stars[s] = {1: (0, ONE), 0: (0, ONE)}
    T.products[(s, s)] = {(0, 0): (0, ONE), (1, 0): (0, ONE), (0, 1): (1, ONE)}
    B = T.bundle()
    assert classify_bundle(B)["saturated"] and classify_bundle(B)["semi_abelian"]
    monkeypatch.setattr(bundle, "build_bundle", lambda A: B)
    with pytest.raises(ValueError, match="^mapping is not injective$"):
        roundtrip_check(full_i2)


def test_extracting_with_gauged_family_gives_gauged_action(five, rng):
    # the gauge read on the bundle's slots: u_s = chi_s on fiber s
    B = build_bundle(five)
    N, C = random_gauge(five, rng)
    _, one, _ = canonical_multipliers(B)
    cols = [five.frame.index[x] for p in B.points for x in p]
    K = one.copy()
    K[B.slot_s, B.slot_x] = C[B.slot_s, cols]
    check_multiplier_family(B, (N, K, None))
    A2 = extract_action(B, (N, K, None))
    assert A2.equals(gauge_transform(five, (N, C)))


def test_bad_multiplier_family_rejected(five):
    # a value that is not unit modulus, a missing value, u_e = -1 at a point
    B = build_bundle(five)
    S = five.S
    check_multiplier_family(B, canonical_multipliers(B))
    for case, message in [("modulus", r"u\[.*\] is not unit modulus"),
                          ("missing", r"u\[.*\] is not unit modulus"),
                          ("idempotent", "u at idempotent .* is not one")]:
        N, K, _ = canonical_multipliers(B)
        K, V = K.copy(), np.zeros(K.shape, dtype=complex)
        s = next(a for a in S.elements() if B.cs[a] and S.is_idempotent(a) == (case == "idempotent"))
        if case == "modulus":
            K[s, 0], V[s, 0] = NOT_ANGLE, 2
        elif case == "missing":
            K[s, 0] = OUTSIDE
        else:
            N, K[s, 0] = 2, 1
        with pytest.raises(BadMultiplierFamily, match=message):
            check_multiplier_family(B, (N, K, V))


def test_section_bundle_of_twisted_group(rng):
    G, tau = z2_nontrivial_cocycle()
    S, biss, wide = bisection_semigroup(G)
    B = SectionBundle(G, tau, S, biss)
    ok, bad = verify_fell_bundle(B, rng=rng)
    assert ok, bad
    assert classify_bundle(B)["saturated"]


def test_carrier_override_breaks_saturation(rng):
    G = cyclic_group(2)
    S, biss, wide = bisection_semigroup(G)
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    B = SectionBundle(G, TwoCocycle.trivial(G), S, biss, carriers={g: frozenset()})
    ok, bad = verify_fell_bundle(B, rng=rng)
    assert ok, bad  # still a bundle, just not saturated
    info = classify_bundle(B)
    assert not info["saturated"]
    with pytest.raises(NotSaturated):
        extract_action(B, canonical_multipliers(B))


def test_pair_groupoid_section_bundle(rng):
    G = pair_groupoid([0, 1])
    S, biss, wide = bisection_semigroup(G)
    B = SectionBundle(G, TwoCocycle.trivial(G), S, biss)
    ok, bad = verify_fell_bundle(B, rng=rng)
    assert ok, bad
    info = classify_bundle(B)
    assert info["saturated"] and info["semi_abelian"]


def _corrupt_one_entry(B, rng):
    """A copy of B, made through its rows, with one product, star or
    inclusion scalar times a non-trivial root of unity, or one star target
    moved to another point of its fiber."""
    fiber, _, z = B.stars[:3]
    movable = np.flatnonzero(B.cs[B.inv[fiber]] > 1)
    slots = {"product": len(B.products[0]), "star": len(fiber),
             "star-target": len(movable), "inclusion": len(B.inclusions[0])}
    kind = rng.choice(sorted(k for k, v in slots.items() if v))
    i = rng.randrange(slots[kind])
    denom = rng.choice([2, 3, 4])
    k = rng.randrange(1, denom)
    N = lcm(B.N, denom)
    rows = [[*cols[:-2], widen(cols[-2], B.N, N), cols[-1]]
            for cols in (B.products, B.stars, B.inclusions)]
    if kind == "star-target":
        i = movable[i]
        cols = rows[1]
        cols[2] = cols[2].copy()
        cols[2][i] = rng.choice([w for w in range(B.cs[B.inv[fiber[i]]]) if w != z[i]])
    else:
        cols = rows[("product", "star", "inclusion").index(kind)]
        K = cols[-2] = cols[-2].copy()
        if K[i] == NOT_ANGLE:
            cols[-1] = cols[-1].copy()
            cols[-1][i] *= Angle(f"{k}/{denom}").value
        else:
            K[i] = (K[i] + k * (N // denom)) % N
    return Bundle(B.S, B.points, N, *rows, B.realization, **origin(B))


def test_table_corruptions_are_detected():
    bundles = [build_bundle(A) for A in mutation_corpus(random.Random(2))]
    rng = random.Random(5)
    detected, total = 0, 500
    for i in range(total):
        B = _corrupt_one_entry(bundles[i % len(bundles)], rng)
        if not verify_fell_bundle(B, rng=random.Random(i))[0]:
            detected += 1
    assert detected >= 0.99 * total, f"detected {detected}/{total}"


def test_product_row_outside_its_fiber_is_reported(five, rng):
    T = tables(build_bundle(five))
    S = T.S
    points = frozenset().union(*T.carriers.values())
    s, t = next(key for key, rows in T.products.items()
                if rows and points - T.carrier(S.mul(*key)))
    xy = next(iter(T.products[(s, t)]))
    _, c = T.products[(s, t)][xy]
    T.products[(s, t)][xy] = (min(points - T.carrier(S.mul(s, t)), key=str), c)
    ok, bad = verify_fell_bundle(T.bundle(), rng=rng)
    assert not ok
    assert bad == [("product-fiber", (S.label(s), S.label(t)))]


def test_inclusion_entry_outside_its_fiber_is_reported(five, rng):
    T = tables(build_bundle(five))
    S = T.S
    points = frozenset().union(*T.carriers.values())
    s, t = next(key for key in T.inclusions if points - T.carrier(key[0]))
    T.inclusions[(s, t)][min(points - T.carrier(s), key=str)] = Angle(0)
    ok, bad = verify_fell_bundle(T.bundle(), rng=rng)
    assert not ok
    assert bad == [("inclusion-fiber", (S.label(s), S.label(t)))]


def test_star_target_outside_its_fiber_is_reported(five, rng):
    T = tables(build_bundle(five))
    S = T.S
    s = next(s for s in S.elements() if T.stars[s])
    x = next(iter(T.stars[s]))
    _, c = T.stars[s][x]
    T.stars[s][x] = ("nowhere", c)
    ok, bad = verify_fell_bundle(T.bundle(), rng=rng)
    assert not ok
    assert bad == [("star-fiber", S.label(s))]


def _with_row_repeated(B, table, i):
    """A copy of B, made through its rows, whose products (table 0), stars
    (1) or inclusions (2) hold row i twice, first with its scalar times -1."""
    N = lcm(B.N, 2)
    rows = [[*cols[:-2], widen(cols[-2], B.N, N), cols[-1]]
            for cols in (B.products, B.stars, B.inclusions)]
    *cols, K, V = rows[table]
    assert V is None
    rows[table] = [*(np.insert(c, i, c[i]) for c in cols), np.insert(K, i, (K[i] + N // 2) % N), None]
    return Bundle(B.S, B.points, N, *rows, B.realization, **origin(B))


def test_a_repeated_key_is_a_fiber_violation(five):
    # a lookup keeps the last row of a key, so no later check sees the first
    B = build_bundle(five)
    n, lab = five.S.n, five.S.label
    for table, tag in enumerate(("product-fiber", "star-fiber", "inclusion-fiber")):
        first = (B.products, B.stars, B.inclusions)[table][0]
        i = len(first) // 2
        where = lab(first[i]) if table == 1 else (lab(first[i] // n), lab(first[i] % n))
        R = _with_row_repeated(B, table, i)
        assert R.verify() == (False, [(tag, where)])
        assert verify_fell_bundle(R) == (False, [(tag, where)])


def test_each_norm_family_fires_on_its_own_hypothesis(five):
    S, lab = five.S, five.S.label

    def norms(T):
        return T.bundle().lookup().norm_violations(1e-9)

    # a product scalar of modulus 2, away from the products delta_x* delta_y
    T = tables(build_bundle(five))
    s, t = next(key for key, rows in T.products.items() if rows and key[0] != S.inv[key[1]])
    xy, (z, c) = next(iter(T.products[(s, t)].items()))
    T.products[(s, t)][xy] = (z, 2 * as_complex(c))
    assert norms(T) == [("submultiplicative", (lab(s), lab(t)))]
    # a star scalar of modulus 1/2, which halves delta_x* delta_x too
    T = tables(build_bundle(five))
    s = next(a for a in S.elements() if T.stars[a])
    x, (u, c) = next(iter(T.stars[s].items()))
    T.stars[s][x] = (u, 0.5 * as_complex(c))
    assert norms(T) == [("star-isometric", lab(s)), ("cstar-identity", lab(s))]
    # delta_x* delta_x = e(1/3) delta_z: the product's exponent shifted
    T = tables(build_bundle(five))
    z, c = T.products[(S.inv[s], s)][(u, x)]
    T.products[(S.inv[s], s)][(u, x)] = (z, c * Angle("1/3"))
    assert norms(T) == [("positivity", (lab(s), z))]


def test_one_fiber_algebras_read_positivity_at_projections(busby):
    # C[Z/3]'s products add terms, so its C*-norm is not the sup norm
    G = cyclic_group(3)
    assert verify_fell_bundle(convolution_algebra(G, TwoCocycle.trivial(G))) == (True, [])
    # Busby-Smith's germ algebra with the star exponent of delta_g shifted
    # by 1/2: delta_g* delta_g = -delta_e, which no exact family sees
    T = tables(germ_algebra(busby))
    g = next(x for x in T.stars[0] if T.products[(0, 0)][(x, x)][0] != x)
    u, c = T.stars[0][g]
    T.stars[0][g] = (u, c * Angle("1/2"))
    e = T.products[(0, 0)][(u, g)][0]
    B = T.bundle()
    assert B.verify() == (True, [])
    assert verify_fell_bundle(B) == (False, [("positivity", ("1", e))])
