"""The point-mass checks read the structure tables.

The inclusion families of Bundle.verify, refine.verify_morphism and
reps.verify_representation gather point masses through the Bundle rows.
The former implementations, which pushed CFunction point masses through
the linear operations of the dict tables (tables(B)), are kept here as
references; the two must agree on clean inputs and on inputs with one
table entry or one matrix corrupted.  Where a table leaves its fibers, the
morphism and representation checks report the fiber scan of Bundle.verify
instead.
"""

import random
from fractions import Fraction

import numpy as np
import pytest

from fellsem import reps
from fellsem.bundle import BundleError, SectionBundle, build_bundle
from fellsem.generators import mutation_corpus, standard_groupoids
from fellsem.groupoid import (TwoCocycle, action_from_cocycle, bisection_semigroup,
                              z2_nontrivial_cocycle)
from fellsem.refine import BundleMorphism, saturated_refinement, verify_morphism, verify_refinement
from fellsem.reps import BundleRep, regular_covariant_rep, to_bundle_rep, verify_representation

from dense import ONE, Angle, CFunction, _smul, as_complex, extend, ordered, point_mass, sup_norm, tables
from test_bundle import _corrupt_one_entry
from test_groupoid_arrays import perturbed, uneven_entries


# ---------------------------------------------------------------------------
# the former CFunction implementations

def ref_include(B, t, s, f):
    """j(t, s), extended linearly, of a CFunction on fiber s."""
    scalars = B.inclusions.get((s, t))
    if scalars is None:
        raise BundleError(f"{B.S.label(s)} is not below {B.S.label(t)}")
    vals = {}
    for x, c in scalars.items():
        v = _smul(f(x), c)
        if v != 0:
            vals[x] = v
    return CFunction(B.carriers[t], vals)


def _close(f, g, tol):
    if f.carrier != g.carrier:
        return False
    return all(abs(f.at(x) - g.at(x)) <= tol for x in f.carrier)


def ref_inclusion_families(B, tol=1e-9, rng=None):
    """The six inclusion families of the former verify_fell_bundle."""
    rng = rng or random.Random(0)
    S, bad = B.S, []

    def pms(s):
        return [point_mass(B.carrier(s), x) for x in B.carrier(s)]

    def close(f, g):
        return _close(f, g, tol)

    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            for f in pms(s):
                jf = ref_include(B, t, s, f)
                if abs(sup_norm(jf) - sup_norm(f)) > tol:
                    bad.append(("inclusion-isometric", (S.label(s), S.label(t))))
            if s == t:
                c = B.carrier(s)
                g = CFunction(c, {x: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in c})
                if not close(ref_include(B, s, s, g), g):
                    bad.append(("inclusion-identity", S.label(s)))
            for r in S.elements():
                if not S.leq(r, s):
                    continue
                for f in pms(r):
                    lhs = ref_include(B, t, s, ref_include(B, s, r, f))
                    if not close(lhs, ref_include(B, t, r, f)):
                        bad.append(("inclusion-functorial",
                                    (S.label(r), S.label(s), S.label(t))))
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            for f in pms(s):
                lhs = B.star(t, ref_include(B, t, s, f))
                rhs = ref_include(B, S.inv[t], S.inv[s], B.star(s, f))
                if not close(lhs, rhs):
                    bad.append(("inclusion-star", (S.label(s), S.label(t))))
            for u in S.elements():
                su, tu = S.mul(s, u), S.mul(t, u)
                us, ut = S.mul(u, s), S.mul(u, t)
                for f in pms(s):
                    for g in pms(u):
                        lhs = B.mul(t, u, ref_include(B, t, s, f), g)
                        rhs = ref_include(B, tu, su, B.mul(s, u, f, g))
                        if not close(lhs, rhs):
                            bad.append(("inclusion-product-left",
                                        (S.label(s), S.label(t), S.label(u))))
                        lhs = B.mul(u, t, g, ref_include(B, t, s, f))
                        rhs = ref_include(B, ut, us, B.mul(u, s, g, f))
                        if not close(lhs, rhs):
                            bad.append(("inclusion-product-right",
                                        (S.label(s), S.label(t), S.label(u))))
    return bad


def ref_verify_morphism(m, tol=1e-9):
    B, A = tables(m.B), tables(m.A)
    T = B.S
    bad = []

    def psi(i, f):
        return extend(f, A.carrier(m.phi(i)))

    def pm(i, x):
        return point_mass(B.carrier(i), x)

    for i in T.elements():
        for j in T.elements():
            k = T.mul(i, j)
            for x in ordered(B, i):
                for y in ordered(B, j):
                    f, g = pm(i, x), pm(j, y)
                    lhs = psi(k, B.mul(i, j, f, g))
                    rhs = A.mul(m.phi(i), m.phi(j), psi(i, f), psi(j, g))
                    if not _close(lhs, rhs, tol):
                        bad.append(("multiplicative", (T.label(i), T.label(j), x, y)))
    for i in T.elements():
        for x in ordered(B, i):
            f = pm(i, x)
            if not _close(psi(T.inv[i], B.star(i, f)), A.star(m.phi(i), psi(i, f)), tol):
                bad.append(("star", (T.label(i), x)))
    for i in T.elements():
        for j in T.elements():
            if not T.leq(i, j):
                continue
            for x in ordered(B, i):
                f = pm(i, x)
                lhs = psi(j, ref_include(B, j, i, f))
                rhs = ref_include(A, m.phi(j), m.phi(i), psi(i, f))
                if not _close(lhs, rhs, tol):
                    bad.append(("inclusion", (T.label(i), T.label(j), x)))
    return not bad, bad


def ref_pi(pi, s, f):
    """pi of a CFunction on fiber s, extended linearly from the point masses."""
    out = np.zeros((pi.d, pi.d), dtype=complex)
    for x in f.carrier:
        val = f.at(x)
        if val != 0:
            out += val * pi.mats[(s, x)]
    return out


def ref_verify_representation(pi, B, tol=1e-9):
    B = tables(B)
    S = B.S
    bad = []

    def close(a, b):
        return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))

    def pm(s, x):
        return point_mass(B.carrier(s), x)

    for s in S.elements():
        for t in S.elements():
            st = S.mul(s, t)
            for x in ordered(B, s):
                for y in ordered(B, t):
                    f, g = pm(s, x), pm(t, y)
                    if not close(ref_pi(pi, s, f) @ ref_pi(pi, t, g), ref_pi(pi, st, B.mul(s, t, f, g))):
                        bad.append(("multiplicative", (S.label(s), S.label(t), x, y)))
    for s in S.elements():
        for x in ordered(B, s):
            f = pm(s, x)
            if not close(ref_pi(pi, s, f).conj().T, ref_pi(pi, S.inv[s], B.star(s, f))):
                bad.append(("star", (S.label(s), x)))
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            for x in ordered(B, s):
                f = pm(s, x)
                if not close(ref_pi(pi, t, ref_include(B, t, s, f)), ref_pi(pi, s, f)):
                    bad.append(("inclusion", (S.label(s), S.label(t), x)))
    return not bad, bad


# ---------------------------------------------------------------------------
# inputs

def _action_bundles():
    return [build_bundle(A) for A in mutation_corpus(random.Random(2))]


def _regular_reps():
    """Section bundles and regular representations of the test_reps
    groupoids (pair3 left out for size) and of the twisted order-two group."""
    cases = [(G, TwoCocycle.trivial(G)) for name, G in standard_groupoids().items()
             if name != "pair3"]
    cases.append(z2_nontrivial_cocycle())
    for G, tau in cases:
        S, biss, _ = bisection_semigroup(G)
        B = SectionBundle(G, tau, S, biss)
        yield B, to_bundle_rep(regular_covariant_rep(G, tau, S, biss), B)


def _inclusion_tags(B):
    return {tag for tag, _ in B.verify()[1] if tag.startswith("inclusion-")}


def _ref_tags(bad):
    return {tag for tag, _ in bad}


def _corrupt_matrix(pi, rng):
    """Multiply one representation matrix by a non-trivial fourth root of
    unity, in place; return the undo."""
    key = rng.choice(sorted(pi.mats, key=str))
    old = pi.mats[key]
    pi.mats[key] = as_complex(Angle(Fraction(rng.randrange(1, 4), 4))) * old

    def undo():
        pi.mats[key] = old
    return undo


def test_inclusion_families_match_the_reference():
    rng = random.Random(11)
    bundles = _action_bundles()
    bundles += [saturated_refinement(B)[0] for B in bundles]
    bundles += [B for B, _ in _regular_reps()]
    mismatches, verdicts = [], set()
    for n, B in enumerate(bundles):
        for trial in range(4):
            C = _corrupt_one_entry(B, rng) if trial else B
            tags = _inclusion_tags(C)
            verdicts.add(not tags)
            if tags != _ref_tags(ref_inclusion_families(tables(C))):
                mismatches.append((n, trial, tags))
    assert not mismatches, mismatches
    assert verdicts == {True, False}


def test_morphism_check_matches_the_reference():
    rng = random.Random(12)
    mismatches, verdicts = [], set()
    for B in _action_bundles() + [B for B, _ in _regular_reps()]:
        R, m = saturated_refinement(B)
        for trial in range(4):
            if trial:
                side = rng.choice([0, 1])
                pair = [R, B]
                pair[side] = _corrupt_one_entry(pair[side], rng)
                m = BundleMorphism(*pair, m.phi)
            got = verify_morphism(m)
            verdicts.add(got[0])
            if got != ref_verify_morphism(m):
                mismatches.append((R.S.n, trial))
    assert not mismatches, mismatches
    assert verdicts == {True, False}


def test_representation_check_matches_the_reference():
    rng = random.Random(13)
    mismatches, verdicts = [], set()
    for B, pi in _regular_reps():
        for trial in range(7):
            C, undo = B, None
            if trial % 2:
                C = _corrupt_one_entry(B, rng)
            elif trial:
                undo = _corrupt_matrix(pi, rng)
            got = verify_representation(pi, C)
            verdicts.add(got[0])
            if got != ref_verify_representation(pi, C):
                mismatches.append((C.S.n, trial))
            if undo:
                undo()
    assert not mismatches, mismatches
    assert verdicts == {True, False}


@pytest.mark.parametrize("chunks", ["one row", "uneven"])
def test_representation_kernels_match_the_reference_in_order(monkeypatch, chunks):
    # the products come one gemm per chunk of left slots over the slot grid,
    # and the hits go back to B.pairs order: with one slot per chunk, and
    # with chunks that do not divide the slots evenly
    npr, tol = np.random.default_rng(19), 1e-9
    cases = list(_regular_reps())
    G, tau = z2_nontrivial_cocycle()
    S, biss, wide = bisection_semigroup(G)
    B = build_bundle(action_from_cocycle(G, tau, S, biss, wide))
    cases.append((B, to_bundle_rep(regular_covariant_rep(G, tau, S, biss), B)))
    verdicts, failures = set(), 0
    for B, pi in cases:
        monkeypatch.setattr(reps, "ENTRIES", 1 if chunks == "one row"
                            else uneven_entries(B.M, B.M * pi.d ** 2))
        for kind, mats in perturbed(pi.mats, npr, tol):
            rep = BundleRep(pi.d, mats)
            got = verify_representation(rep, B, tol)
            assert got == ref_verify_representation(rep, B, tol), kind
            verdicts.add((kind, got[0]))
            failures += len(got[1])
    assert {("dense", False), (1 + 2 * tol, False), (1 - 2 * tol, False)} <= verdicts
    assert failures > 100


def _section_rep(G, tau):
    S, biss, _ = bisection_semigroup(G)
    B = SectionBundle(G, tau, S, biss)
    return B, to_bundle_rep(regular_covariant_rep(G, tau, S, biss), B)


def test_clean_pair3_representation_matches_the_reference():
    G = standard_groupoids()["pair3"]
    B, pi = _section_rep(G, TwoCocycle.trivial(G))
    assert verify_representation(pi, B) == ref_verify_representation(pi, B) == (True, [])


def test_morphism_check_reads_zero_outside_the_image_fiber(five):
    # a point x of a refined fiber outside its image fiber of the base has
    # no entries in the base tables: every product, star and inclusion of
    # the base there is zero
    R, m = saturated_refinement(build_bundle(five))
    T, A = R.S, tables(m.A)
    points = frozenset().union(*A.carriers.values())
    i = next(i for i in T.elements() if points - A.carrier(m.phi(i)))
    x = min(points - A.carrier(m.phi(i)), key=str)
    RT = tables(R)
    RT.carriers[i] = RT.carrier(i) | {x}

    def check():
        return verify_morphism(BundleMorphism(RT.bundle(), m.A, m.phi))

    assert check() == (True, [])

    # a product from x
    j = next(j for j in T.elements() if RT.carrier(j) and RT.carrier(T.mul(i, j)))
    y = min(RT.carrier(j), key=str)
    RT.products[(i, j)][(x, y)] = (min(RT.carrier(T.mul(i, j)), key=str), ONE)
    assert check() == (False, [("multiplicative", (T.label(i), T.label(j), x, y))])
    del RT.products[(i, j)][(x, y)]

    # a product onto x, of two points whose product in the base is zero
    k, l, u, v = next((k, l, u, v) for k in T.elements() for l in T.elements()
                      if T.mul(k, l) == i
                      for u in RT.carrier(k) - {x} for v in RT.carrier(l) - {x}
                      if (u, v) not in A.products[(m.phi(k), m.phi(l))])
    RT.products[(k, l)][(u, v)] = (x, ONE)
    assert check() == (False, [("multiplicative", (T.label(k), T.label(l), u, v))])


def test_morphism_check_reports_a_table_leaving_its_fibers(five):
    R, m = saturated_refinement(build_bundle(five))
    RT = tables(R)
    T = R.S
    points = frozenset().union(*RT.carriers.values())
    i, j = next(key for key, rows in RT.products.items()
                if rows and points - RT.carrier(T.mul(*key)))
    xy = next(iter(RT.products[(i, j)]))
    _, c = RT.products[(i, j)][xy]
    RT.products[(i, j)][xy] = (min(points - RT.carrier(T.mul(i, j)), key=str), c)
    R = RT.bundle()
    m = BundleMorphism(R, m.A, m.phi)
    scan = [("product-fiber", (T.label(i), T.label(j)))]
    assert R.verify() == (False, scan)
    assert verify_morphism(m) == (False, scan)
    assert verify_refinement(m) == (False, scan)


def test_representation_check_reports_a_table_leaving_its_fibers():
    B, pi = _section_rep(*z2_nontrivial_cocycle())
    T = tables(B)
    S = B.S
    s = next(s for s in S.elements() if T.stars[s])
    x = next(iter(T.stars[s]))
    T.stars[s][x] = ("nowhere", T.stars[s][x][1])
    B = T.bundle()
    scan = [("star-fiber", S.label(s))]
    assert B.verify() == (False, scan)
    assert verify_representation(pi, B) == (False, scan)
