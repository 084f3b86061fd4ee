"""The bundle arrays against the loop implementations they replaced.

ref_bundle_verify is the former Bundle.verify, which looked every point
mass up in the dict tables one at a time, and ref_verify_fell_bundle the
former verify_fell_bundle, which added families on random CFunctions one
sample at a time; both read a Bundle's rows as dict tables (tables(B)),
visiting each fiber's points in the Bundle's order.  The exact families
must give the same violation lists; the norm lemma that replaced the
random families must flag whatever they flag, and give the same verdict on
every pointwise table.  The former loop visited a triple's associativity
keys in set order; the arrays list them by point, so those runs are
compared as multisets.
"""

import cmath
import random
from itertools import groupby

import numpy as np

from fellsem.angles import ONE, as_complex
from fellsem.algebra import convolution_algebra, left_regular
from fellsem.bundle import SectionBundle, build_bundle, verify_fell_bundle
from fellsem.generators import (corpus, full_monoid_action, mutate_omega, mutation_corpus,
                                random_gauge, standard_groupoids)
from fellsem.action import gauge_transform
from fellsem.groupoid import TwoCocycle, bisection_semigroup, cyclic_group, z2_nontrivial_cocycle
from fellsem.refine import saturated_refinement

from dense import (add, far, include_point, mul_point, ordered, random_element, scale, star_point,
                   sup_norm, tables)
from test_algebra import parity_cases
from test_bundle import _corrupt_one_entry


# ---------------------------------------------------------------------------
# reference implementations

def ref_bundle_verify(B, tol=1e-9):
    S, lab = B.S, B.S.label
    els, inv, sets = S.elements(), S.inv, B.carriers
    cars = {s: ordered(B, s) for s in els}  # the points in the bundle's order
    bad = []
    for s in els:
        for t in els:
            cs, ct, cst = sets[s], sets[t], sets[S.mul(s, t)]
            if any(x not in cs or y not in ct or z not in cst
                   for (x, y), (z, _) in B.products[(s, t)].items()):
                bad.append(("product-fiber", (lab(s), lab(t))))
        if any(x not in sets[s] or z not in sets[inv[s]]
               for x, (z, _) in B.stars[s].items()):
            bad.append(("star-fiber", lab(s)))
    for (s, t), entries in B.inclusions.items():
        if not entries.keys() <= sets[s] & sets[t]:
            bad.append(("inclusion-fiber", (lab(s), lab(t))))
    if bad:
        return False, bad

    def mul(s, t, p, q):
        return mul_point(B, s, t, p, q)

    def star(s, p):
        return star_point(B, s, p)

    def include(t, s, p):
        return include_point(B, t, s, p)

    def check(tag, where, lhs, rhs):
        if far(lhs, rhs, tol):
            bad.append((tag, where))

    for r in els:
        for s in els:
            rs = S.mul(r, s)
            for t in els:
                st = S.mul(s, t)
                lhs = {(x, y, z): mul(rs, t, p, (z, ONE))
                       for (x, y), p in B.products[(r, s)].items() for z in cars[t]}
                rhs = {(x, y, z): mul(r, st, (x, ONE), p)
                       for (y, z), p in B.products[(s, t)].items() for x in cars[r]}
                for key in lhs.keys() | rhs.keys():
                    check("associativity", (lab(r), lab(s), lab(t), *key),
                          lhs.get(key), rhs.get(key))
    for s in els:
        for x in cars[s]:
            check("involutive", (lab(s), x), star(inv[s], star(s, (x, ONE))), (x, ONE))
    for s in els:
        for t in els:
            st = S.mul(s, t)
            for x in cars[s]:
                for y in cars[t]:
                    check("anti-multiplicative", (lab(s), lab(t), x, y),
                          star(st, mul(s, t, (x, ONE), (y, ONE))),
                          mul(inv[t], inv[s], star(t, (y, ONE)), star(s, (x, ONE))))

    for s in els:
        for t in els:
            if not S.leq(s, t):
                continue
            middle = [r for r in els if S.leq(s, r) and S.leq(r, t)]
            for x in cars[s]:
                p = (x, ONE)
                jp = include(t, s, p)
                if abs((abs(as_complex(jp[1])) if jp else 0.0) - 1) > tol:
                    bad.append(("inclusion-isometric", (lab(s), lab(t), x)))
                if s == t:
                    check("inclusion-identity", (lab(s), x), jp, p)
                for r in middle:
                    check("inclusion-functorial", (lab(s), lab(r), lab(t), x),
                          include(t, r, include(r, s, p)), jp)
                check("inclusion-star", (lab(s), lab(t), x),
                      star(t, jp), include(inv[t], inv[s], star(s, p)))
                for u in els:
                    tu, su, ut, us = S.mul(t, u), S.mul(s, u), S.mul(u, t), S.mul(u, s)
                    for y in cars[u]:
                        q = (y, ONE)
                        where = (lab(s), lab(t), lab(u), x, y)
                        check("inclusion-product-left", where, mul(t, u, jp, q),
                              include(tu, su, mul(s, u, p, q)))
                        check("inclusion-product-right", where, mul(u, t, q, jp),
                              include(ut, us, mul(u, s, q, p)))
    return not bad, bad


def ref_verify_fell_bundle(B, tol=1e-9, samples=3, rng=None):
    rng = rng or random.Random(0)
    S = B.S

    def close(f, g):
        if f.carrier != g.carrier:
            return False
        return all(abs(f.at(x) - g.at(x)) <= tol for x in f.carrier)

    _, bad = ref_bundle_verify(B, tol)
    if any(tag in ("product-fiber", "star-fiber", "inclusion-fiber") for tag, _ in bad):
        return False, bad

    for s in S.elements():
        for t in S.elements():
            for _ in range(samples):
                f1, f2 = random_element(B, s, rng), random_element(B, s, rng)
                g = random_element(B, t, rng)
                lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                lhs = B.mul(s, t, add(scale(f1, lam), f2), g)
                rhs = add(scale(B.mul(s, t, f1, g), lam), B.mul(s, t, f2, g))
                if not close(lhs, rhs):
                    bad.append(("left-linearity", (S.label(s), S.label(t))))
                h1, h2 = random_element(B, t, rng), random_element(B, t, rng)
                e = random_element(B, s, rng)
                lhs = B.mul(s, t, e, add(scale(h1, lam), h2))
                rhs = add(scale(B.mul(s, t, e, h1), lam), B.mul(s, t, e, h2))
                if not close(lhs, rhs):
                    bad.append(("right-linearity", (S.label(s), S.label(t))))

    for s in S.elements():
        for t in S.elements():
            for _ in range(samples):
                f, g = random_element(B, s, rng), random_element(B, t, rng)
                if sup_norm(B.mul(s, t, f, g)) > sup_norm(f) * sup_norm(g) + tol:
                    bad.append(("submultiplicative", (S.label(s), S.label(t))))

    for s in S.elements():
        for _ in range(samples):
            f = random_element(B, s, rng)
            if abs(sup_norm(B.star(s, f)) - sup_norm(f)) > tol:
                bad.append(("star-isometric", S.label(s)))
            g = random_element(B, s, rng)
            lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            lhs = B.star(s, add(scale(f, lam), g))
            rhs = add(scale(B.star(s, f), lam.conjugate()), B.star(s, g))
            if not close(lhs, rhs):
                bad.append(("conjugate-linear", S.label(s)))

    for s in S.elements():
        ss = S.inv[s]
        for _ in range(samples):
            f = random_element(B, s, rng)
            p = B.mul(ss, s, B.star(s, f), f)
            if abs(sup_norm(p) - sup_norm(f) ** 2) > tol * max(1.0, sup_norm(f) ** 2):
                bad.append(("cstar-identity", S.label(s)))
            for x in ordered(B, S.mul(ss, s)):
                v = p.at(x)
                if abs(v.imag) > tol or v.real < -tol:
                    bad.append(("positivity", (S.label(s), x)))

    return not bad, bad


# ---------------------------------------------------------------------------
# parity

def _canonical(bad):
    """bad with each triple's run of associativity violations sorted."""
    def run(v):
        return v[1][:3] if v[0] == "associativity" else v
    return [v for _, vs in groupby(bad, key=run) for v in sorted(vs, key=repr)]


NORM_TAGS = {"submultiplicative", "star-isometric", "cstar-identity", "positivity"}
RANDOM_TAGS = NORM_TAGS | {"left-linearity", "right-linearity", "conjugate-linear"}


def _pointwise(T):
    """Whether, for each (s, t), the non-zero product entries have distinct
    x and distinct z."""
    for rows in T.products.values():
        live = [(x, z) for (x, _), (z, c) in rows.items() if c != 0]
        if any(len(set(column)) < len(live) for column in zip(*live)):
            return False
    return True


def _same_fell(B, seed, tol=1e-9):
    """verify_fell_bundle against the former random families drawing from
    Random(seed).  The exact families' violations are the reference's and
    B.verify's; every (tag, where) a random family flags, the lemma flags
    too; the verdicts agree on a pointwise table, and on any other the
    reference fails beyond the lemma only by the families whose sup norm is
    not the algebra's norm.  The generator passed is left as it was."""
    T = tables(B)
    rng = random.Random(seed)
    ok, bad = verify_fell_bundle(B, tol=tol, rng=rng)
    assert rng.getstate() == random.Random(seed).getstate()
    ref_ok, ref_bad = ref_verify_fell_bundle(T, tol=tol, rng=random.Random(seed))
    exact = [v for v in bad if v[0] not in NORM_TAGS]
    assert _canonical(exact) == _canonical([v for v in ref_bad if v[0] not in RANDOM_TAGS])
    assert _canonical(B.verify(tol)[1]) == _canonical(exact)
    missed = {v for v in ref_bad if v[0] in RANDOM_TAGS} - set(bad)
    if _pointwise(T):
        assert ok == ref_ok and not missed, (bad, ref_bad)
    else:
        assert {tag for tag, _ in missed} <= {"submultiplicative", "cstar-identity", "positivity"}
        assert ok or not ref_ok, bad
    return ok


def _section_bundles():
    for G in standard_groupoids().values():
        S, biss, _ = bisection_semigroup(G)
        yield SectionBundle(G, TwoCocycle.trivial(G), S, biss)
    G, tau = z2_nontrivial_cocycle()
    S, biss, _ = bisection_semigroup(G)
    yield SectionBundle(G, tau, S, biss)


def test_arrays_match_the_reference_on_the_corpus_and_the_mutants():
    actions = corpus(random.Random(0), 200)
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    actions += [mutate_omega(bases[i % len(bases)], rng) for i in range(1000)]
    verdicts = {_same_fell(build_bundle(A), i) for i, A in enumerate(actions)}
    assert verdicts == {True, False}


def test_arrays_match_the_reference_on_corrupted_tables():
    # test_table_corruptions_are_detected's bundles and corruptions
    bundles = [build_bundle(A) for A in mutation_corpus(random.Random(2))]
    rng = random.Random(5)
    detected = 0
    for i in range(500):
        detected += not _same_fell(_corrupt_one_entry(bundles[i % len(bundles)], rng), i)
    assert detected >= 495, detected


def test_arrays_match_the_reference_on_section_bundles():
    rng = random.Random(6)
    verdicts = set()
    for i, B in enumerate(_section_bundles()):
        verdicts.add(_same_fell(B, i))
        verdicts.add(_same_fell(_corrupt_one_entry(B, rng), 100 + i))
    assert verdicts == {True, False}


def test_arrays_match_the_reference_on_refinements():
    for i, A in enumerate(corpus(random.Random(0), 40)):
        R, _ = saturated_refinement(build_bundle(A))
        assert _same_fell(R, i)


def test_arrays_match_the_reference_on_one_fiber_algebras():
    # the convolution algebras and the germ algebras of test_algebra; most
    # are not pointwise, where the sup-norm families do not apply: every
    # clean algebra passes and every corrupted one fails
    algebras = [make()[0] for make in parity_cases()]
    rng = random.Random(8)
    for i, alg in enumerate(algebras):
        assert _same_fell(alg, i)
        assert not _same_fell(_corrupt_one_entry(alg, rng), 1000 + i)


def test_products_sum_the_terms_that_meet_at_one_point():
    # C[Z/3]: every arrow c is the product ab of three pairs
    G = cyclic_group(3)
    tau = TwoCocycle.trivial(G)
    alg = convolution_algebra(G, tau)
    rng = random.Random(10)
    f, g = (random_element(alg, 0, rng) for _ in range(2))
    want = {c: 0j for c in G.arrows()}
    for a in G.arrows():
        for b in G.arrows():
            if G.composable(a, b):
                want[G.mul(a, b)] += f.at(a) * g.at(b) * as_complex(tau(a, b))
    fg = tables(alg).mul(0, 0, f, g)
    assert all(abs(fg.at(c) - v) < 1e-12 for c, v in want.items())
    pts = alg.points[0]
    dense = np.tensordot([f.at(x) for x in pts], left_regular(alg), 1) @ [g.at(x) for x in pts]
    assert np.abs(dense - [fg.at(x) for x in pts]).max() < 1e-12


def test_complex_scalars_match_the_reference(five):
    T = tables(build_bundle(five))
    S = T.S
    s = next(a for a in S.elements() if not S.is_idempotent(a) and T.stars[a])
    x = next(iter(T.stars[s]))
    z, c = T.stars[s][x]
    # the same unit scalar as a complex number: still a Fell bundle
    T.stars[s][x] = (z, as_complex(c))
    assert _same_fell(T.bundle(), 0)
    # a complex phase that no Angle cancels
    T.stars[s][x] = (z, cmath.exp(0.3j) * as_complex(c))
    assert not _same_fell(T.bundle(), 1)
    # a complex zero, which acts as a missing entry
    T.stars[s][x] = (z, 0j)
    assert not _same_fell(T.bundle(), 2)


def test_complex_tables_match_the_reference():
    # every scalar a complex number, so that every comparison is numeric
    rng = random.Random(9)
    verdicts = set()
    for i, A in enumerate(corpus(random.Random(0), 20)):
        T = tables(build_bundle(A))
        for rows in [*T.products.values(), *T.stars.values()]:
            rows.update({key: (z, as_complex(c)) for key, (z, c) in rows.items()})
        for entries in T.inclusions.values():
            entries.update({x: as_complex(c) for x, c in entries.items()})
        B = T.bundle()
        verdicts.add(_same_fell(B, i))
        verdicts.add(_same_fell(_corrupt_one_entry(B, rng), 100 + i))
    assert verdicts == {True, False}


def test_gauged_i3_matches_the_reference():
    A = full_monoid_action(3)
    B = build_bundle(gauge_transform(A, random_gauge(A, random.Random(3))))
    assert _same_fell(B, 0)
    assert not _same_fell(_corrupt_one_entry(B, random.Random(4)), 1)
