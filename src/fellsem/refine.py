"""Morphisms and refinements of semi-abelian bundles.

The saturated refinement of a bundle A over S lives over the inverse
semigroup of pairs (s, V), V a carrier subset (a bit mask over the points of
fiber s) reachable from the full carriers by products and involutions; its
rows are A's rows inside the masks, so products land exactly on their
carriers and the result is saturated by construction.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

import numpy as np

from fellsem.action import germ_groupoid, germ_map_check, turns
from fellsem.isg import IsgHomomorphism, is_essentially_injective, verify_inverse_semigroup
from fellsem.bundle import (NOWHERE, Bundle, NotSaturated, _expand, canonical_multipliers,
                            classify_bundle, extract_action)

# the number of a point of B outside its image fiber of A: past every table
# of A, so a lookup made from it reads A's zero entry, yet, unlike NOWHERE,
# a point, which matches none of A's
ELSEWHERE = NOWHERE + 1


def RefinedBundle(base) -> Bundle:
    """The saturated refinement of a base bundle, over the pair semigroup.
    (Named like a class: callers construct it as one.)"""
    baseS, n, off = base.S, base.S.n, base.off
    prod, star = [[] for _ in range(n * n)], [[] for _ in range(n)]
    for key, x, y, z in zip(*(c.tolist() for c in base.products[:4])):
        prod[key].append((1 << x, 1 << y, 1 << z))
    for s, x, z in zip(*(c.tolist() for c in base.stars[:3])):
        star[s].append((1 << x, 1 << z))

    def product(p, q):
        (s, V), (t, W) = p, q
        return baseS.mul(s, t), sum({z for x, y, z in prod[s * n + t] if V & x and W & y})

    def adjoint(p):
        return baseS.inv[p[0]], sum({z for x, z in star[p[0]] if p[1] & x})

    # close the full carriers, as bit masks, under adjoints and products,
    # forming each product once; the list grows while it is walked
    pairs, pos, table = [], {}, {}

    def add(p):
        if p not in pos:
            pos[p] = len(pairs)
            pairs.append(p)
        return pos[p]

    for s in baseS.elements():
        add((s, (1 << len(base.points[s])) - 1))
    for i, p in enumerate(pairs):
        add(adjoint(p))
        for j in range(i + 1):
            table[i, j], table[j, i] = add(product(p, pairs[j])), add(product(pairs[j], p))

    def members(k):
        s, V = pairs[k]
        return [x for x in range(base.cs[s]) if V >> x & 1]

    def sort_key(k):  # the element, then its carrier's points ordered by str
        return pairs[k][0], sorted((base.points[pairs[k][0]][x] for x in members(k)), key=str)

    order = sorted(range(len(pairs)), key=sort_key)
    rank = {k: i for i, k in enumerate(order)}
    S = verify_inverse_semigroup(
        [[rank[table[a, b]] for b in order] for a in order],
        labels=[f"({baseS.label(s)}|{','.join(sorted(map(str, V)))})"
                for s, V in map(sort_key, order)])
    P, phi = S.n, np.array([pairs[k][0] for k in order], dtype=np.intp).reshape(-1)
    num = np.full((P, base.M + 1), -1, dtype=np.intp)  # [i, base slot]: its number in fiber i
    for i, k in enumerate(order):
        num[i, off[phi[i]] + np.array(members(k), dtype=np.intp)] = np.arange(len(members(k)))
    points = [[base.points[phi[i]][x] for x in members(k)] for i, k in enumerate(order)]

    def restrict(table, span, key, base_key, fibers, need):
        """The base rows of base_key[k], renumbered in the refined fibers
        (one per point column), kept where the first `need` points lie in
        theirs; key[k] is the refined key."""
        b, r = _expand(*span, base_key)
        cols = [num[f[b], np.where(c[r] >= 0, off[phi[f[b]]] + c[r], base.M)]
                for c, f in zip(table[1:-2], fibers)]
        keep = np.all([c >= 0 for c in cols[:need]], axis=0)
        V = table[-1]
        return key[b][keep], *(c[keep] for c in cols), table[-2][r][keep], \
            None if V is None else V[r][keep]

    i, j = np.divmod(np.arange(P * P), P)
    products = restrict(base.products, base.spans[0], i * P + j,
                        phi[i] * n + phi[j], (i, j, S.cayley[i, j]), 3)
    i = np.arange(P)
    stars = restrict(base.stars, base.spans[1], i, phi,
                     (i, np.array(S.inv, dtype=np.intp)), 2)
    i, j = np.nonzero(S.order)
    inclusions = restrict(base.inclusions, base.spans[2], i * P + j,
                          phi[i] * n + phi[j], (i, j), 1)
    return Bundle(S, points, base.N, products, stars, inclusions, "refined",
                  base=base, phi=phi.tolist())


class BundleMorphism(NamedTuple):
    """phi on the index semigroups plus fiberwise carrier injections."""
    B: Bundle
    A: Bundle
    phi: IsgHomomorphism


def refinement_morphism(B: Bundle) -> BundleMorphism:
    phi = IsgHomomorphism(B.S, B.base.S, B.phi)
    return BundleMorphism(B, B.base, phi)


def saturated_refinement(A):
    """Build the pair-semigroup refinement of a bundle and its morphism."""
    B = RefinedBundle(A)
    return B, refinement_morphism(B)


def _morphism(m: BundleMorphism, tol):
    """The morphism violations, and A's lookups (None where a table leaves
    its fibers, whose fiber scan is then the violations): B's point masses
    against A's, exponents mod one N, over B.pairs, every point and B.below."""
    B, A = m.B, m.A
    bad = B.fiber_violations() + A.fiber_violations()
    if bad:
        return bad, None
    N, exact = lcm(B.N, A.N), B.angles and A.angles
    Bl, Al = B.lookup(N, exact), A.lookup(N, exact)
    phi = np.array(m.phi.map, dtype=np.intp).reshape(B.S.n)
    lab, pts, off = B.S.label, B.points, B.off
    to_a = np.full(B.M + 1, NOWHERE, dtype=np.intp)
    index = [{x: i for i, x in enumerate(p)} for p in A.points]
    to_a[:B.M] = [index[phi[s]].get(x, ELSEWHERE) for s, p in enumerate(pts) for x in p]

    def differ(p, s, q):
        """Whether B's scaled point masses p, in fiber s, differ from A's q."""
        return Bl.far((to_a.take(off[s] + p[0], mode="clip"), *p[1:]), q, tol)

    i, j, x, y = B.pairs
    hit = differ(Bl.product(i, j, x, y), B.T[i, j],
                 Al.product(phi[i], phi[j], to_a[off[i] + x], to_a[off[j] + y]))
    bad = [("multiplicative", (lab(i), lab(j), pts[i][x], pts[j][y]))
           for i, j, x, y in zip(i[hit], j[hit], x[hit], y[hit])]
    i, x = B.slot_s, B.slot_x
    hit = differ(Bl.star(i, x), B.inv[i], Al.star(phi[i], to_a[:-1]))
    bad += [("star", (lab(i), pts[i][x])) for i, x in zip(i[hit], x[hit])]
    i, j, x = B.below
    hit = differ(Bl.include(i, j, x), j, Al.include(phi[i], phi[j], to_a[off[i] + x]))
    bad += [("inclusion", (lab(i), lab(j), pts[i][x])) for i, j, x in zip(i[hit], j[hit], x[hit])]
    return bad, Al


def verify_morphism(m: BundleMorphism, tol: float = 1e-9):
    """Multiplicativity, *-preservation and the inclusion square, on point
    masses of every fiber of B.  The carrier maps are the identity on
    points, so each condition compares B's row with A's (a point of B
    outside its image fiber reads A's zero), angles exactly; a table that
    leaves its fibers is reported as Bundle.verify reports it, instead."""
    bad, _ = _morphism(m, tol)
    return not bad, bad


def verify_refinement(m: BundleMorphism, tol: float = 1e-9):
    """Morphism axioms plus surjectivity, essential injectivity, fiberwise
    injectivity (each fiber of B a subset of its image fiber of A), the
    span condition, and the idempotent-ideal consistency check, which is
    left out where a table leaves its fibers."""
    bad, Al = _morphism(m, tol)
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
    for i in T.idem if Al is not None else ():
        e, im = phi(i), list(image[i])
        y = np.array([A.points[e].index(y) for y in im], dtype=np.intp)
        z = Al.product(e, e, np.arange(A.cs[e])[:, None], y)[0]
        inside = np.zeros(A.cs[e] + 1, dtype=bool)  # the last entry for zero
        inside[y] = True
        for x, k in zip(*np.nonzero((z != NOWHERE) & ~inside.take(z, mode="clip"))):
            bad.append(("not-an-ideal", (T.label(i), A.points[e][x], im[k])))
    return not bad, bad


# ---------------------------------------------------------------------------
# preservation of germ data and algebras

def germ_preservation_check(m: BundleMorphism):
    """The germ map [t, x] -> [phi(t), x] between the germ groupoids of the
    refined and base bundles: well-defined, bijective, structure-preserving.
    Both bundles must be saturated."""
    B, A = m.B, m.A
    for bundle, name in ((B, "refined"), (A, "base")):
        if not classify_bundle(bundle)["saturated"]:
            raise NotSaturated(f"{name} bundle is not saturated")
    GB, GA = (germ_groupoid(extract_action(b, canonical_multipliers(b))) for b in (B, A))
    # both actions have A's points, as every full fiber of A is one of B
    if GB.A.frame.points != GA.A.frame.points:
        raise ValueError("the refined and base actions have different points")
    ok, mapping = germ_map_check(GB, GA.of[m.phi.map], GA.src_i, GA.rng_i, GA.table)
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
    d = turns(GA.K[np.asarray(m.phi.map)[GB.reps], GB.src_i], GA.N)
    to_a = np.array([mapping[g] for g in range(GB.arrow_count)], dtype=np.intp).reshape(-1)
    LA = algA.lookup(exact=False)
    (_, g, h, k, _, _), (_, x, z, _, _) = algB.products, algB.stars
    zA, _, cA = LA.product(0, 0, to_a[g], to_a[h])
    bad = (zA != to_a[k]) | (np.abs(d[g] * d[h] * cA - algB.values[0] * d[k]) > tol)
    mismatches = [("product", (int(a), int(b))) for a, b in zip(g[bad], h[bad])]
    zA, _, cA = LA.star(0, to_a[x])
    off = np.abs(np.conj(d[x]) * cA - algB.values[1] * d[z]) > tol
    mismatches += [("star-index" if zA[i] != to_a[z[i]] else "star-coeff", int(x[i]))
                   for i in np.flatnonzero((zA != to_a[z]) | off)]
    if mismatches:
        report["ok"] = False
        report["mismatches"] = mismatches
    return report
