"""Morphisms and refinements of semi-abelian bundles.

The saturated refinement of a bundle A over S lives over the inverse
semigroup of pairs (s, V) where V is a carrier subset reachable from the
full carriers by products and involutions; the fiber over (s, V) is the
functions supported on V inside the fiber of A over s.  Products in the
refined bundle land exactly on their carriers, so the result is saturated
by construction.
"""

from __future__ import annotations

from math import lcm

import numpy as np

from fellsem.action import germ_groupoid, germ_map_check
from fellsem.angles import as_complex
from fellsem.isg import IsgHomomorphism, is_essentially_injective, verify_inverse_semigroup
from fellsem.bundle import (NOWHERE, Bundle, BundleArrays, NotSaturated, canonical_multipliers,
                            classify_bundle, extract_action)

# the number of a point of B outside its image fiber of A: past every table
# of A, so a lookup made from it reads A's zero entry, yet, unlike NOWHERE,
# a point, which matches none of A's
ELSEWHERE = NOWHERE + 1


class RefineError(ValueError):
    pass


def _prod_carrier(A, s, t, V, W) -> frozenset:
    return frozenset(z for (x, y), (z, _) in A.products[(s, t)].items() if x in V and y in W)


def _star_carrier(A, s, V) -> frozenset:
    return frozenset(z for x, (z, _) in A.stars[s].items() if x in V)


def RefinedBundle(base) -> Bundle:
    """The saturated refinement of a base bundle, over the pair semigroup.

    Its tables are the base's rows restricted to the pair carriers.  (Named
    like a class: callers construct it as one.)
    """
    baseS = base.S
    pairs = {(s, base.carrier(s)) for s in baseS.elements()}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for (s, V) in frontier:
            p = (baseS.inv[s], _star_carrier(base, s, V))
            if p not in pairs:
                pairs.add(p)
                nxt.append(p)
        for (s, V) in list(pairs):
            for (t, W) in list(pairs):
                p = (baseS.mul(s, t), _prod_carrier(base, s, t, V, W))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    pairs = sorted(pairs, key=lambda p: (p[0], sorted(p[1], key=str)))
    pos = {p: i for i, p in enumerate(pairs)}
    table = [[pos[(baseS.mul(s, t), _prod_carrier(base, s, t, V, W))] for (t, W) in pairs]
             for (s, V) in pairs]
    labels = [f"({baseS.label(s)}|{','.join(sorted(map(str, V)))})" for (s, V) in pairs]
    S = verify_inverse_semigroup(table, labels=labels)
    phi = [s for (s, _) in pairs]
    fibers = {i: V for i, (_, V) in enumerate(pairs)}

    products, stars, inclusions = {}, {}, {}
    for i in S.elements():
        for j in S.elements():
            V, W, target = fibers[i], fibers[j], fibers[S.mul(i, j)]
            products[(i, j)] = {(x, y): (z, c)
                                for (x, y), (z, c) in base.products[(phi[i], phi[j])].items()
                                if x in V and y in W and z in target}
            if S.leq(i, j):
                inclusions[(i, j)] = {x: c for x, c in base.inclusions[(phi[i], phi[j])].items()
                                      if x in V}
        target = fibers[S.inv[i]]
        stars[i] = {x: (z, c) for x, (z, c) in base.stars[phi[i]].items()
                    if x in fibers[i] and z in target}
    return Bundle(S, fibers, products, stars, inclusions, "refined", base=base, phi=phi)


class BundleMorphism:
    """phi on the index semigroups plus fiberwise carrier injections."""

    def __init__(self, B, A, phi: IsgHomomorphism):
        self.B = B
        self.A = A
        self.phi = phi


def refinement_morphism(B: Bundle) -> BundleMorphism:
    phi = IsgHomomorphism(B.S, B.base.S, B.phi)
    return BundleMorphism(B, B.base, phi)


def saturated_refinement(A):
    """Build the pair-semigroup refinement of a bundle and its morphism."""
    B = RefinedBundle(A)
    return B, refinement_morphism(B)


def _morphism(m: BundleMorphism, tol):
    """The morphism violations, and A's tables as arrays (None where a table
    leaves its fibers, whose fiber scan is then the violations).  Each
    table entry of B is compared with A's at the same points, with
    exponents mod one N, over every pair of points, every point, and every
    s <= t with a point of fiber s."""
    Ba, Aa = BundleArrays(m.B), BundleArrays(m.A)
    bad = Ba.fiber_violations() + Aa.fiber_violations()
    if bad:
        return bad, None
    N, angles = lcm(Ba.N, Aa.N), Ba.angles and Aa.angles
    for arrays in (Ba, Aa):
        arrays.widen(N)
        arrays.angles = angles
        arrays.lookups()
    phi = np.array(m.phi.map, dtype=np.intp).reshape(Ba.n)
    lab, pts, off = m.B.S.label, Ba.points, Ba.off
    to_a = np.full(Ba.M + 1, NOWHERE, dtype=np.intp)
    to_a[:Ba.M] = [Aa.index[phi[s]].get(x, ELSEWHERE) for s, p in enumerate(pts) for x in p]

    def differ(p, s, q):
        """Whether B's scaled point masses p, in fiber s, differ from A's q."""
        return Ba.far((to_a.take(off[s] + p[0], mode="clip"), *p[1:]), q, tol)

    i, j, x, y = Ba.pairs
    hit = differ(Ba.product(i, j, x, y), Ba.T[i, j],
                 Aa.product(phi[i], phi[j], to_a[off[i] + x], to_a[off[j] + y]))
    bad = [("multiplicative", (lab(i), lab(j), pts[i][x], pts[j][y]))
           for i, j, x, y in zip(i[hit], j[hit], x[hit], y[hit])]
    i, x = Ba.slot_s, Ba.slot_x
    hit = differ(Ba.star(i, x), Ba.inv[i], Aa.star(phi[i], to_a[:-1]))
    bad += [("star", (lab(i), pts[i][x])) for i, x in zip(i[hit], x[hit])]
    i, j, x = Ba.below
    hit = differ(Ba.include(i, j, x), j, Aa.include(phi[i], phi[j], to_a[off[i] + x]))
    bad += [("inclusion", (lab(i), lab(j), pts[i][x])) for i, j, x in zip(i[hit], j[hit], x[hit])]
    return bad, Aa


def verify_morphism(m: BundleMorphism, tol: float = 1e-9):
    """Multiplicativity, *-preservation and the inclusion square, on point
    masses of every fiber of B.  The carrier maps are the identity on
    points, so each condition compares B's table entry with A's: a point
    of B outside its image fiber reads A's zero.  Both are gathers through
    the tables compiled to arrays, and compare Angles exactly; a table that
    leaves its fibers is reported as Bundle.verify reports it, instead."""
    bad, _ = _morphism(m, tol)
    return not bad, bad


def verify_refinement(m: BundleMorphism, tol: float = 1e-9):
    """Morphism axioms plus surjectivity, essential injectivity, fiberwise
    injectivity (each fiber of B a subset of its image fiber of A), the
    span condition, and the idempotent-ideal consistency check, which is
    left out where a table leaves its fibers."""
    bad, Aa = _morphism(m, tol)
    B, A, phi = m.B, m.A, m.phi
    T, S = B.S, A.S
    if not phi.is_surjective:
        bad.append(("not-surjective", None))
    if not is_essentially_injective(phi):
        bad.append(("not-essentially-injective", None))
    image = {i: B.carrier(i) & A.carrier(phi(i)) for i in T.elements()}
    bad += [("fiber-not-injective", (T.label(i), x))
            for i in T.elements() for x in B.carrier(i) - image[i]]
    covered = {s: set() for s in S.elements()}
    for i in T.elements():
        covered[phi(i)] |= image[i]
    bad += [("span-deficit", S.label(s)) for s in S.elements() if covered[s] != A.carrier(s)]

    # images of idempotent fibers are ideals of the target idempotent fiber:
    # delta_x delta_y, for x in fiber e and y in the image, is zero or in it
    for i in T.idem if Aa is not None else ():
        e, im = phi(i), list(image[i])
        y = np.array([Aa.index[e][y] for y in im], dtype=np.intp)
        z = Aa.product(e, e, np.arange(Aa.cs[e])[:, None], y)[0]
        inside = np.zeros(Aa.cs[e] + 1, dtype=bool)  # the last entry for zero
        inside[y] = True
        for x, k in zip(*np.nonzero((z != NOWHERE) & ~inside.take(z, mode="clip"))):
            bad.append(("not-an-ideal", (T.label(i), Aa.points[e][x], im[k])))
    return not bad, bad


# ---------------------------------------------------------------------------
# preservation of germ data and algebras

def _germ_groupoid(bundle):
    return germ_groupoid(extract_action(bundle, canonical_multipliers(bundle)))


def germ_preservation_check(m: BundleMorphism):
    """The germ map [t, x] -> [phi(t), x] between the germ groupoids of the
    refined and base bundles: well-defined, bijective, structure-preserving.
    Both bundles must be saturated."""
    B, A = m.B, m.A
    for bundle, name in ((B, "refined"), (A, "base")):
        if not classify_bundle(bundle)["saturated"]:
            raise NotSaturated(f"{name} bundle is not saturated")
    GB, GA = _germ_groupoid(B), _germ_groupoid(A)
    ok, mapping = germ_map_check(GB, lambda t, x: GA.germ(m.phi(t), x), GA.arrow_count,
                                 GA.src, GA.rng, GA.compose)
    return ok, mapping, (GB, GA)


def algebra_preservation_check(m: BundleMorphism, tol: float = 1e-9):
    """Dimension, block profile, and structure-constant transport between
    the germ algebras of the refined and base bundles."""
    from fellsem.algebra import block_decompose, germ_algebra

    ok, mapping, (GB, GA) = germ_preservation_check(m)
    if not ok:
        return {"ok": False, "reason": ("germ", mapping)}
    algB = germ_algebra(GB.A, GB)
    algA = germ_algebra(GA.A, GA)
    dimB, dimA = len(algB.carrier(0)), len(algA.carrier(0))
    report = {"ok": True,
              "dim_refined": dimB, "dim_base": dimA,
              "blocks_refined": block_decompose(algB),
              "blocks_base": block_decompose(algA)}
    if dimB != dimA or report["blocks_refined"] != report["blocks_base"]:
        report["ok"] = False
        return report

    # transport: the refined basis element g corresponds to d_g times the
    # base basis element, d_g the base-side coordinate at the germ
    d = {}
    for g in range(GB.arrow_count):
        tB0, x = GB.rep(g)
        d[g] = as_complex(GA.coord(m.phi(tB0), x))

    rowsA = algA.products[(0, 0)]
    mismatches = []
    for (g, h), (k, cB) in algB.products[(0, 0)].items():
        K, cA = rowsA.get((mapping[g], mapping[h]), (None, 0))
        if K != mapping[k] or abs(d[g] * d[h] * as_complex(cA) - as_complex(cB) * d[k]) > tol:
            mismatches.append(("product", (g, h)))
    starsA = algA.stars[0]
    for g, (gs, cB) in algB.stars[0].items():
        K, cA = starsA[mapping[g]]
        if mapping[gs] != K:
            mismatches.append(("star-index", g))
            continue
        lhs = complex(d[g]).conjugate() * as_complex(cA)
        if abs(lhs - as_complex(cB) * d[gs]) > tol:
            mismatches.append(("star-coeff", g))
    if mismatches:
        report["ok"] = False
        report["mismatches"] = mismatches
    return report
