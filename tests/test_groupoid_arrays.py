"""The groupoid layer on exponent arrays against the per-pair code it replaced.

The reference functions below are the former implementations: cocycles as
dicts of Angles checked pair by pair, brute-force enumeration through
itertools.product, bisection products as sets of arrows closed in a loop,
the regular covariant representation entry by entry, the covariance check
with two matmuls per pair of elements, and the commutator stack of the
centre built with n * n matmuls and a full SVD.  The array code must give
the same verdicts, violation lists, enumeration order, bisection lists,
tables and labels, block profiles and rng state.
"""

import random
from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import lcm

import numpy as np
import pytest

from fellsem import algebra, reps
from fellsem.algebra import block_decompose, convolution_algebra, left_regular
from fellsem.generators import standard_groupoids
from fellsem.groupoid import (GroupoidError, NotComposable, TwoCocycle, action_from_cocycle,
                              bisection_semigroup, coboundary_cocycles, enumerate_cocycles,
                              pair_groupoid, transitive_z2_groupoid, verify_cocycle,
                              z2_nontrivial_cocycle)
from fellsem.isg import verify_inverse_semigroup
from fellsem.reps import CovariantRep, regular_covariant_rep, verify_covariant

from dense import Angle, as_angle, as_complex, carrier, scalar


# ---------------------------------------------------------------------------
# reference implementations

def ref_composable_triples(G):
    return [(a, b, c) for a, b in G.composable_pairs()
            for c in range(G.m) if G.src[b] == G.rng[c]]


def ref_verify_cocycle(G, tau: dict):
    """tau maps pairs to Angles."""
    violations = []
    pairs = set(G.composable_pairs())
    for pair in pairs:
        if pair not in tau:
            violations.append(("missing", pair))
    for pair in tau:
        if pair not in pairs:
            violations.append(("extraneous", pair))
    if violations:
        return False, violations
    for a in G.arrows():
        if not tau[(a, G.unit[G.src[a]])].is_one:
            violations.append(("normalization", (a, G.unit[G.src[a]])))
        if not tau[(G.unit[G.rng[a]], a)].is_one:
            violations.append(("normalization", (G.unit[G.rng[a]], a)))
    for a, b, c in ref_composable_triples(G):
        if tau[(a, b)] * tau[(G.mul(a, b), c)] != tau[(b, c)] * tau[(a, G.mul(b, c))]:
            violations.append(("cocycle", (a, b, c)))
    return not violations, violations


def _roots(roots):
    return [Angle(f"{k}/{roots}") if k else Angle(0) for k in range(roots)]


def ref_enumerate_cocycles(G, roots=4):
    forced, free = {}, []
    for a, b in G.composable_pairs():
        if G.is_unit(a) or G.is_unit(b):
            forced[(a, b)] = Angle(0)
        else:
            free.append((a, b))
    out = []
    for combo in iproduct(_roots(roots), repeat=len(free)):
        tau = {**forced, **dict(zip(free, combo))}
        if ref_verify_cocycle(G, tau)[0]:
            out.append(tau)
    return out


def ref_coboundary(G, c) -> dict:
    cc = {a: as_angle(c.get(a, 0)) for a in G.arrows()}
    return {(a, b): cc[a] * cc[b] * cc[G.mul(a, b)].conj() for a, b in G.composable_pairs()}


def ref_coboundary_cocycles(G, roots=4):
    non_units = [a for a in G.arrows() if not G.is_unit(a)]
    seen, out = set(), []
    for combo in iproduct(_roots(roots), repeat=len(non_units)):
        tau = ref_coboundary(G, dict(zip(non_units, combo)))
        key = tuple(sorted((pair, v.frac) for pair, v in tau.items()))
        if key not in seen:
            seen.add(key)
            out.append(tau)
    return out


def ref_bisection_product(G, s, t) -> frozenset:
    return frozenset(G.mul(a, b) for a in s for b in t if G.composable(a, b))


def ref_bisection_semigroup(G, generators=None):
    from fellsem.groupoid import all_bisections
    gens = all_bisections(G) if generators is None else [frozenset(g) for g in generators]
    closed = set(gens) | {frozenset()}
    changed = True
    while changed:
        changed = False
        for s in list(closed):
            t = frozenset(G.inv[a] for a in s)
            if t not in closed:
                closed.add(t)
                changed = True
        current = list(closed)
        for s in current:
            for t in current:
                for r in (ref_bisection_product(G, s, t), s & t):
                    if r not in closed:
                        closed.add(r)
                        changed = True
    biss = sorted(closed, key=lambda b: (len(b), sorted(b)))
    pos = {b: i for i, b in enumerate(biss)}
    table = [[pos[ref_bisection_product(G, s, t)] for t in biss] for s in biss]
    labels = ["{" + ",".join(G.labels[a] for a in sorted(b)) + "}" for b in biss]
    S = verify_inverse_semigroup(table, labels=labels)
    return S, biss, set().union(*biss) == set(G.arrows())


def ref_regular_covariant_rep(G, tau, S, bisections):
    d = G.m
    rho = {}
    for x in G.objects:
        m = np.zeros((d, d), dtype=complex)
        for c in G.arrows():
            if G.rng[c] == x:
                m[c, c] = 1
        rho[x] = m
    v = {}
    for s in S.elements():
        m = np.zeros((d, d), dtype=complex)
        for a in bisections[s]:
            for c in G.arrows():
                if G.composable(a, c):
                    m[G.mul(a, c), c] = Angle(tau(a, c)).value
        v[s] = m
    return rho, v


def ref_verify_covariant(R, A, tol=1e-9):
    S = A.S
    bad = []

    def close(a, b):
        return np.linalg.norm(a - b) <= tol * max(1.0, np.linalg.norm(b))

    def rho_of(carrier):
        return sum((R.rho[x] for x in carrier), np.zeros((R.d, R.d), dtype=complex))

    for s in S.elements():
        vs = R.v[s]
        for x in A.frame.points:  # in the frame's order, as verify_covariant lists them
            if x in A.U[S.mul(S.inv[s], s)] and \
                    not close(vs @ R.rho[x] @ vs.conj().T, R.rho[A.theta[s][x]]):
                bad.append(("conjugation", (S.label(s), x)))
    for s in S.elements():
        for t in S.elements():
            lhs = np.zeros((R.d, R.d), dtype=complex)
            for x, v in A.omega[(s, t)].items():
                lhs += as_complex(scalar(v)) * R.rho[x]
            if not close(R.v[s] @ R.v[t] @ R.v[S.mul(s, t)].conj().T, lhs):
                bad.append(("cocycle", (S.label(s), S.label(t))))
    for s in S.elements():
        vs = R.v[s]
        if not close(vs.conj().T @ vs, rho_of(A.U[S.mul(S.inv[s], s)])):
            bad.append(("domain-projection", S.label(s)))
        if not close(vs @ vs.conj().T, rho_of(carrier(A, s))):
            bad.append(("range-projection", S.label(s)))
    return not bad, bad


def ref_center_basis(L, tol=1e-9):
    n = len(L)
    rows = []
    for Li in L:
        block = np.zeros((n * n, n), dtype=complex)
        for j in range(n):
            block[:, j] = (Li @ L[j] - L[j] @ Li).reshape(-1)
        rows.append(block)
    _, s, vh = np.linalg.svd(np.vstack(rows))
    return [vh[i].conj() for i in range(len(vh)) if i >= len(s) or s[i] <= tol * max(1.0, s[0])]


# ---------------------------------------------------------------------------
# the cases

def values(G, tau) -> dict:
    return {pair: Angle(tau(*pair)) for pair in G.composable_pairs()}


def turns(tau: dict) -> dict:
    """A dict of Angles as the turns TwoCocycle takes."""
    return {pair: v.frac for pair, v in tau.items()}


def sign_twist(G):
    """The pullback of the sign twist on the isotropy group of the
    transitive Z/2 groupoid."""
    arrows = [(i, e, j) for i in (0, 1) for e in (0, 1) for j in (0, 1)]
    return {(a, b): Angle("1/2") if arrows[a][1] == arrows[b][1] == 1 else Angle(0)
            for a, b in G.composable_pairs()}


@cache
def cocycle_families():
    """(name, G, roots, the cocycles as dicts of Angles from the reference,
    the same from the array code): every enumerated cocycle of the five
    standard groupoids (4096 candidates on pair3 at roots 2), and
    trans_z2's sign coboundaries with the sign twist."""
    groupoids, out = standard_groupoids(), []
    for name, roots in (("z2", 4), ("z3", 4), ("pair2", 4), ("pair3", 2)):
        G = groupoids[name]
        out.append((name, G, roots, ref_enumerate_cocycles(G, roots=roots),
                    enumerate_cocycles(G, roots=roots)))
    G = groupoids["trans_z2"]
    out.append(("trans_z2", G, 2, ref_coboundary_cocycles(G, roots=2) + [sign_twist(G)],
                coboundary_cocycles(G, roots=2) + [TwoCocycle(G, turns(sign_twist(G)))]))
    return out


def test_enumerations_match_the_reference_in_order():
    for name, G, roots, refs, taus in cocycle_families():
        assert refs and [values(G, tau) for tau in taus] == refs, name


def variants(G, tau: dict, roots, rng):
    """The cocycle, one slot shifted by a root of unity, one composable
    pair missing and one extraneous pair."""
    pairs = G.composable_pairs()
    shifted = dict(tau)
    pair = rng.choice(pairs)
    shifted[pair] = shifted[pair] * Angle(Fraction(rng.randrange(1, 2 * roots), 2 * roots))
    missing = dict(tau)
    del missing[rng.choice(pairs)]
    extra = dict(tau)
    outside = [(a, b) for a in G.arrows() for b in G.arrows() if not G.composable(a, b)]
    extra[rng.choice(outside) if outside else (G.m, 0)] = Angle("1/3")
    return {"clean": tau, "shifted": shifted, "missing": missing, "extraneous": extra}


# ---------------------------------------------------------------------------
# parity

def test_cocycle_checks_and_readers_match_the_reference():
    rng = random.Random(13)
    seen = set()
    for name, G, roots, refs, taus in cocycle_families():
        assert taus
        S, biss, wide = bisection_semigroup(G)
        index = {b: i for i, b in enumerate(biss)}
        for ref, tau in zip(refs, taus):
            assert verify_cocycle(G, tau) == ref_verify_cocycle(G, ref)
            for kind, mapping in variants(G, ref, roots, rng).items():
                got = verify_cocycle(G, TwoCocycle(G, turns(mapping)))
                assert got == ref_verify_cocycle(G, mapping), (name, kind)
                seen.add((kind, got[0]))
                if kind == "missing":
                    with pytest.raises(GroupoidError):
                        action_from_cocycle(G, TwoCocycle(G, turns(mapping)), S, biss, wide)
                    continue
                twisted = TwoCocycle(G, turns(mapping))
                A = action_from_cocycle(G, twisted, S, biss, wide)
                assert A.N == lcm(*(mapping[p].frac.denominator for p in G.composable_pairs()))
                for a, b in G.composable_pairs():
                    s, t = index[frozenset({a})], index[frozenset({b})]
                    assert Angle(A.omega[(s, t)](G.rng[G.mul(a, b)])) == mapping[(a, b)]
    assert seen == {("clean", True), ("shifted", False), ("missing", False), ("extraneous", False)}


def test_coboundaries_match_the_reference():
    rng = random.Random(5)
    for G in standard_groupoids().values():
        for _ in range(5):
            c = {a: rng.choice([Fraction(rng.randrange(q), q), f"{rng.randrange(q)}/{q}"])
                 for a in G.arrows() if rng.random() < 0.8 for q in (rng.choice([2, 3, 4, 6]),)}
            assert values(G, TwoCocycle.coboundary(G, c)) == ref_coboundary(G, c)
        taus = coboundary_cocycles(G, roots=2)
        assert taus and [values(G, tau) for tau in taus] == ref_coboundary_cocycles(G, roots=2)


def _cyclic_pair3():
    G = pair_groupoid([0, 1, 2])
    return G, [frozenset(a for a in G.arrows() if (G.rng[a] - G.src[a]) % 3 == 1)]


def bisection_cases():
    for G in standard_groupoids().values():
        yield G, None
    yield _cyclic_pair3()
    G = transitive_z2_groupoid()
    yield G, [frozenset({1, 6})]  # swaps the objects; its square is the sign at each
    G = pair_groupoid([0, 1])
    yield G, [frozenset({1})]


def test_bisection_semigroups_match_the_reference():
    for G, gens in bisection_cases():
        S, biss, wide = bisection_semigroup(G, gens)
        ref, ref_biss, ref_wide = ref_bisection_semigroup(G, gens)
        assert biss == ref_biss and wide == ref_wide
        assert S.table == ref.table and S.labels == ref.labels
        assert S.inv == ref.inv and S.idem == ref.idem


def test_bisection_semigroup_rejects_what_it_rejected():
    G = pair_groupoid([0, 1])
    with pytest.raises(GroupoidError):
        bisection_semigroup(G, [frozenset({0, 1})])  # two arrows with one range
    with pytest.raises(NotComposable):
        G.mul(0, 3)


def covariant_cases():
    """(G, tau, S, bisections): the standard groupoids untwisted and under
    an enumerated cocycle, both sign twists, and pair3 from the cyclic
    generator."""
    for name, G, roots, refs, taus in cocycle_families():
        S, biss, _ = bisection_semigroup(G)
        for tau in (TwoCocycle.trivial(G), taus[-1]):
            yield G, tau, S, biss
    G, tau = z2_nontrivial_cocycle()
    yield (G, tau, *bisection_semigroup(G)[:2])
    G, gens = _cyclic_pair3()
    yield (G, TwoCocycle.trivial(G), *bisection_semigroup(G, gens)[:2])


def test_covariant_reps_and_checks_match_the_reference():
    rng = random.Random(11)
    verdicts = set()
    for G, tau, S, biss in covariant_cases():
        A = action_from_cocycle(G, tau, S, biss)
        R = regular_covariant_rep(G, tau, S, biss)
        rho, v = ref_regular_covariant_rep(G, tau, S, biss)
        assert R.rho.keys() == rho.keys() and all(np.array_equal(R.rho[x], rho[x]) for x in rho)
        assert R.v.keys() == v.keys() and all(np.array_equal(R.v[s], v[s]) for s in v)
        phased = CovariantRep(R.d, R.rho, {**R.v})
        s = rng.choice([s for s in S.elements() if biss[s]])
        phased.v[s] = phased.v[s] * rng.choice([1j, -1j])  # -1 may be a gauge of v_s
        moved = CovariantRep(R.d, R.rho, R.v)
        x = rng.choice(G.objects)
        moved.rho[x] = 2 * moved.rho[x]
        for kind, rep in (("clean", R), ("phase", phased), ("rho", moved)):
            got = verify_covariant(rep, A, 1e-9)
            assert got == ref_verify_covariant(rep, A, 1e-9), kind
            verdicts.add((kind, got[0]))
    assert verdicts == {("clean", True), ("phase", False), ("rho", False)}


def uneven_entries(rows, per_row):
    """An ENTRIES that cuts `rows` rows of per_row entries into chunks of
    more than one row whose last is shorter, where rows allow it."""
    return next((k for k in range(2, rows) if rows % k), 1) * per_row


def perturbed(mats: dict, npr, tol):
    """The matrices of a representation with a dense random, non-monomial
    one at every key, and with one nonzero matrix scaled by 1 +- tol/2 and
    by 1 +- 2 tol, each with its kind."""
    d = len(next(iter(mats.values())))
    yield "dense", {key: npr.standard_normal((d, d)) + 1j * npr.standard_normal((d, d))
                    for key in mats}
    keys = sorted((key for key, m in mats.items() if m.any()), key=str)
    key = keys[npr.integers(len(keys))]
    for c in (1 + tol / 2, 1 - tol / 2, 1 + 2 * tol, 1 - 2 * tol):
        yield c, {**mats, key: c * mats[key]}


@pytest.mark.parametrize("chunks", ["one row", "uneven"])
def test_covariant_kernels_match_the_reference_in_order(monkeypatch, chunks):
    # the cocycle family's products come one gemm per chunk of s: with one
    # s per chunk, and with chunks that do not divide the elements evenly
    npr, tol = np.random.default_rng(17), 1e-9
    verdicts, failures = set(), 0
    for G, tau, S, biss in covariant_cases():
        A = action_from_cocycle(G, tau, S, biss)
        R = regular_covariant_rep(G, tau, S, biss)
        n, m = A.frame.n, A.frame.m
        monkeypatch.setattr(reps, "ENTRIES", 1 if chunks == "one row"
                            else uneven_entries(n, max(n, m) * R.d ** 2))
        for kind, v in perturbed(R.v, npr, tol):
            rep = CovariantRep(R.d, R.rho, v)
            got = verify_covariant(rep, A, tol)
            assert got == ref_verify_covariant(rep, A, tol), kind
            verdicts.add((kind, got[0]))
            failures += len(got[1])
    assert {("dense", False), (1 + 2 * tol, False), (1 - 2 * tol, False)} <= verdicts
    assert failures > 1000


def test_center_basis_and_block_profiles_match_the_reference(monkeypatch):
    cases = [(G, tau) for _, G, _, _, taus in cocycle_families() for tau in (taus[0], taus[-1])]
    cases.append(z2_nontrivial_cocycle())
    for n, (G, tau) in enumerate(cases):
        alg = convolution_algebra(G, tau)
        L = left_regular(alg)
        got, ref = algebra._center_basis(L), ref_center_basis(L)
        assert len(got) == len(ref)
        # the same null space: each basis lies in the span of the other
        for one, two in ((got, ref), (ref, got)):
            Q = np.linalg.qr(np.array(two).T)[0]
            assert np.allclose(Q @ (Q.conj().T @ np.array(one).T), np.array(one).T, atol=1e-8)
        runs = []
        for center in (algebra._center_basis, ref_center_basis):
            monkeypatch.setattr(algebra, "_center_basis", center)
            rng = random.Random(n)
            runs.append((block_decompose(alg, rng=rng), rng.getstate()))
        monkeypatch.undo()
        assert runs[0] == runs[1]
