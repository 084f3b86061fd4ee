"""Structure-constant *-algebras and their block decompositions."""

import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from fellsem.algebra import (NotSemisimpleDetected, block_decompose, convolution_algebra,
                             germ_algebra, left_regular, star_vector)
from fellsem.action import (TwistedAction, gauge_transform, germ_groupoid, siebenize,
                            verify_consequences, verify_twisted_action, widen)
from fellsem.bundle import SectionBundle, canonical_multipliers, extract_action
from fellsem.generators import (cocycle_action, corpus, full_monoid_action, random_gauge,
                               untwisted_action)
from fellsem.groupoid import (TwoCocycle, bisection_semigroup, coboundary_cocycles,
                              cyclic_group, enumerate_cocycles, pair_groupoid,
                              transitive_z2_groupoid, z2_nontrivial_cocycle)
from fellsem.isg import verify_inverse_semigroup
from fellsem.refine import saturated_refinement

from dense import (Angle, CFunction, as_complex, carrier, coord, gauge_functions, ref_omega_at, scalar_conj,
                   tables)


def test_z2_group_algebra_blocks():
    G = cyclic_group(2)
    alg = convolution_algebra(G, TwoCocycle.trivial(G))
    assert alg.verify()[0]
    assert block_decompose(alg) == [1, 1]


def test_z3_group_algebra_blocks():
    G = cyclic_group(3)
    alg = convolution_algebra(G, TwoCocycle.trivial(G))
    assert block_decompose(alg) == [1, 1, 1]


def test_pair_groupoid_algebra_is_full_matrix_block():
    G = pair_groupoid([0, 1])
    alg = convolution_algebra(G, TwoCocycle.trivial(G))
    assert alg.verify()[0]
    assert block_decompose(alg) == [2]


def test_twisted_z2_algebra_blocks():
    G, tau = z2_nontrivial_cocycle()
    alg = convolution_algebra(G, tau)
    assert alg.verify()[0]
    assert block_decompose(alg) == [1, 1]


def test_transitive_z2_groupoid_algebra():
    # 2x2 matrices over the z2 group algebra: two 2x2 blocks
    G = transitive_z2_groupoid()
    alg = convolution_algebra(G, TwoCocycle.trivial(G))
    assert alg.verify()[0]
    assert block_decompose(alg) == [2, 2]


def test_germ_algebra_of_tautological_action():
    A = full_monoid_action(2)
    alg = germ_algebra(A)
    assert alg.verify()[0]
    assert len(alg.carrier(0)) == 4
    assert block_decompose(alg) == [2]


def test_germ_algebra_agrees_with_germ_groupoid(five):
    G = germ_groupoid(five)
    alg = germ_algebra(five, G)
    assert len(alg.carrier(0)) == G.arrow_count
    assert alg.verify()[0]


def test_cocycle_action_germ_algebra_blocks():
    G, tau = z2_nontrivial_cocycle()
    A, _ = cocycle_action(G, tau)
    alg = germ_algebra(A)
    assert alg.verify()[0]
    assert block_decompose(alg) == [1, 1]


def _z3_algebra():
    G = cyclic_group(3)
    return convolution_algebra(G, TwoCocycle.trivial(G))


def test_broken_structure_constants_fail_verify():
    # flip the sign of one product coefficient: g1 g2 = -e while g2 g1 = e
    T = tables(_z3_algebra())
    rows = T.products[(0, 0)]
    z, c = rows[(1, 2)]
    rows[(1, 2)] = (z, Angle("1/2") * c)
    ok, bad = T.bundle().verify()
    assert not ok
    assert any(tag in ("associativity", "anti-multiplicative") for tag, _ in bad)


def test_broken_star_scalar_fails_verify():
    # g1* = -g2 while g2* = g1, so g1** = -g1
    T = tables(_z3_algebra())
    z, c = T.stars[0][1]
    T.stars[0][1] = (z, Angle("1/2") * c)
    ok, bad = T.bundle().verify()
    assert not ok
    assert ("involutive", ("1", 1)) in bad


def test_broken_star_target_fails_verify():
    # g1* = g1, so (g1 g1)* = g2* = g1 while g1* g1* = g1 g1 = g2
    T = tables(_z3_algebra())
    _, c = T.stars[0][1]
    T.stars[0][1] = (1, c)
    ok, bad = T.bundle().verify()
    assert not ok
    assert ("anti-multiplicative", ("1", "1", 1, 1)) in bad


# ---------------------------------------------------------------------------
# parity with the former StarAlgebra: a term-list multiplication table, a
# basis-permuting involution, a dense numpy verify and the block probe run
# on its own left regular array

class ReferenceStarAlgebra:
    """mul[(i, j)] is a list of (k, coefficient); the involution sends basis
    element i to star_coeff[i] times basis element star_index[i]."""

    def __init__(self, n, mul, star_index, star_coeff):
        self.n = n
        self.mul = {key: [(k, complex(c)) for k, c in terms] for key, terms in mul.items()}
        self.star_index = list(star_index)
        self.star_coeff = [complex(c) for c in star_coeff]

    def left_regular(self):
        L = np.zeros((self.n, self.n, self.n), dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                for k, c in self.mul.get((i, j), []):
                    L[i, k, j] += c
        return L

    def star_vector(self, coeffs):
        out = np.zeros(self.n, dtype=complex)
        for i, c in enumerate(coeffs):
            out[self.star_index[i]] += np.conj(c) * self.star_coeff[i]
        return out

    def verify(self, tol=1e-9):
        bad = []
        L = self.left_regular()
        basis = np.eye(self.n, dtype=complex)
        for i in range(self.n):
            for j in range(self.n):
                ij = L[i] @ basis[j]
                for k in range(self.n):
                    lhs = np.tensordot(ij, L, 1) @ basis[k]
                    rhs = L[i] @ (L[j] @ basis[k])
                    if np.linalg.norm(lhs - rhs) > tol:
                        bad.append(("associativity", (i, j, k)))
        for i in range(self.n):
            twice = self.star_vector(self.star_vector(basis[i]))
            if np.linalg.norm(twice - basis[i]) > tol:
                bad.append(("involutive", i))
        for i in range(self.n):
            for j in range(self.n):
                lhs = self.star_vector(L[i] @ basis[j])
                rhs = np.tensordot(self.star_vector(basis[j]), L, 1) @ self.star_vector(basis[i])
                if np.linalg.norm(lhs - rhs) > tol:
                    bad.append(("anti-multiplicative", (i, j)))
        return not bad, bad

    def block_decompose(self, tol=1e-6, attempts=8):
        rng = random.Random(0)
        L = self.left_regular()
        n = self.n
        basis = np.eye(n, dtype=complex)
        gram = np.array([[np.trace(np.tensordot(self.star_vector(basis[i]), L, 1) @ L[j])
                          for j in range(n)] for i in range(n)])
        try:
            R = np.linalg.cholesky((gram + gram.conj().T) / 2).conj().T
        except np.linalg.LinAlgError:
            raise NotSemisimpleDetected("trace form") from None
        pis = [R @ Li @ np.linalg.inv(R) for Li in L]
        K = np.vstack([np.stack([(Li @ Lj - Lj @ Li).reshape(-1) for Lj in L], axis=1)
                       for Li in L])
        _, s, vh = np.linalg.svd(K)
        center = [vh[i].conj() for i in range(len(vh))
                  if i >= len(s) or s[i] <= 1e-9 * max(1.0, s[0])]
        if not center:
            raise NotSemisimpleDetected("center")
        for _ in range(attempts):
            coeffs = np.zeros(n, dtype=complex)
            for c in center:
                coeffs += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * c
            coeffs = coeffs + self.star_vector(coeffs)
            Z = sum(coeffs[i] * pis[i] for i in range(n))
            eig = np.linalg.eigvalsh((Z + Z.conj().T) / 2)
            scale = max(1.0, float(np.max(np.abs(eig))))
            clusters = []
            for v in eig:
                if clusters and abs(v - clusters[-1][-1]) <= tol * scale:
                    clusters[-1].append(v)
                else:
                    clusters.append([v])
            dims = [int(round(len(cl) ** 0.5)) for cl in clusters]
            if all(d * d == len(cl) for d, cl in zip(dims, clusters)):
                return sorted(dims)
        raise NotSemisimpleDetected("multiplicities")


def reference_convolution(G, tau):
    mul = {(a, b): [(G.mul(a, b), Angle(tau(a, b)).value)] if G.composable(a, b) else []
           for a in G.arrows() for b in G.arrows()}
    return ReferenceStarAlgebra(G.m, mul, [G.inv[c] for c in G.arrows()],
                                [Angle(tau(G.inv[c], c)).conj().value for c in G.arrows()])


class ReferenceGermGroupoid:
    """The former germ groupoid: (t, x) ~ (t2, x) when t e = t2 e for some
    idempotent e with x in U(e), found by a scan over every pair, later
    element and idempotent; coordinates change by the transition scalar
    omega(t, e)(y) conj(omega(t2, e)(y)) at y = theta_t(x) for the first
    such e.  Germs are numbered by their first pair, t first and then the
    point in the action's point order."""

    def __init__(self, A):
        self.A = A
        S = A.S
        pairs = [(t, x) for t in S.elements()
                 for x in sorted(A.U[S.mul(S.inv[t], t)], key=A.frame.index.get)]
        parent = {p: p for p in pairs}

        def find(p):
            while parent[p] != p:
                parent[p] = parent[parent[p]]
                p = parent[p]
            return p

        for (t, x) in pairs:
            for t2 in S.elements():
                if t2 > t and x in A.U[S.mul(S.inv[t2], t2)] and self.admissible(t, t2, x):
                    rp, rq = find((t, x)), find((t2, x))
                    if rp != rq:
                        parent[rp] = rq
        classes = {}
        for p in pairs:
            classes.setdefault(find(p), []).append(p)
        self.germs, self.of_pair = [], {}
        for members in classes.values():
            rep = min(members, key=lambda p: (not S.is_idempotent(p[0]), p[0]))
            self.germs.append({"rep": rep, "src": rep[1], "rng": A.theta[rep[0]][rep[1]],
                               "members": sorted(members)})
            for p in members:
                self.of_pair[p] = len(self.germs) - 1

    def admissible(self, t, t2, x):
        S = self.A.S
        return [e for e in S.idem if x in self.A.U[e] and S.mul(t, e) == S.mul(t2, e)]

    def germ(self, t, x):
        return self.of_pair[(t, x)]

    def rep(self, g):
        return self.germs[g]["rep"]

    def src(self, g):
        return self.germs[g]["src"]

    def rng(self, g):
        return self.germs[g]["rng"]

    def transition(self, t, t2, x):
        if t == t2:
            return Angle(0)
        e = self.admissible(t, t2, x)[0]
        y = self.A.theta[t][x]
        return ref_omega_at(self.A, t, e, y) * ref_omega_at(self.A, t2, e, y).conj()

    def coord(self, t, x):
        return self.transition(t, self.rep(self.germ(t, x))[0], x)


def reference_germ_tables(A, R):
    """The germ algebra's rows and stars from a ReferenceGermGroupoid."""
    S, n = A.S, len(R.germs)
    rows, stars = {}, {}
    for g in range(n):
        sg, x = R.rep(g)
        for h in range(n):
            th, xh = R.rep(h)
            if R.rng(h) == R.src(g):
                st = S.mul(sg, th)
                rows[(g, h)] = (R.germ(st, xh),
                                ref_omega_at(A, sg, th, A.theta[st][xh]) * R.coord(st, xh))
        y = A.theta[sg][x]
        sgs = S.inv[sg]
        stars[g] = (R.germ(sgs, y), scalar_conj(ref_omega_at(A, sgs, sg, x)) * R.coord(sgs, y))
    return rows, stars


def reference_germ(A, R):
    rows, stars = reference_germ_tables(A, R)
    n = len(R.germs)
    mul = {(g, h): [] for g in range(n) for h in range(n)}
    mul.update({key: [(k, as_complex(c))] for key, (k, c) in rows.items()})
    return ReferenceStarAlgebra(n, mul, [stars[g][0] for g in range(n)],
                                [as_complex(stars[g][1]) for g in range(n)])


def germ_parity_actions():
    """corpus(Random(0), 40), a gauged I_3 and the actions extracted from
    the saturated refinements of the acceptance suite's test_08."""
    from test_acceptance import _non_saturated_examples
    I3 = full_monoid_action(3)
    actions = corpus(random.Random(0), 40) + [gauge_transform(I3, random_gauge(I3, random.Random(3)))]
    G = pair_groupoid([0, 1])
    S, biss, _ = bisection_semigroup(G)
    for B in [B for B, _, _ in _non_saturated_examples()] + [SectionBundle(
            G, TwoCocycle.trivial(G), S, biss)]:
        R, _ = saturated_refinement(B)
        actions.append(extract_action(R, canonical_multipliers(R)))
    return actions


def assert_same_germs(G, R):
    """Every pair's germ number and coordinate, and every germ's
    representative and endpoints, as the reference has them."""
    assert G.arrow_count == len(R.germs)
    H, _ = G.pair
    assert [((G.reps[g], H.src[g]), H.src[g], H.rng[g]) for g in H.arrows()] == \
        [(R.rep(g), R.src(g), R.rng(g)) for g in range(len(R.germs))]
    for (t, x) in R.of_pair:
        assert G.germ(t, x) == R.germ(t, x), (t, x)
        assert Angle(coord(G, t, x)) == R.coord(t, x), (t, x)
    assert int((G.of >= 0).sum()) == len(R.of_pair)


def test_germ_quotient_matches_the_reference_germs():
    for A in germ_parity_actions():
        G, R = germ_groupoid(A), ReferenceGermGroupoid(A)
        assert_same_germs(G, R)
        alg = germ_algebra(A, G)
        T = tables(alg)
        assert (T.products[(0, 0)], T.stars[0]) == reference_germ_tables(A, R)
        chi, fixed = siebenize(A)
        S, functions = A.S, gauge_functions(A, chi)
        for s in S.elements():
            ref = CFunction(carrier(A, s), {A.theta[s][x]: R.coord(s, x).conj()
                                          for x in A.U[S.mul(S.inv[s], s)]})
            assert functions[s].equals(ref)
        assert fixed.equals(gauge_transform(A, chi))


def test_germs_of_a_non_faithful_action_match_the_reference():
    # S = {z, 1}, z a zero, acting as the identity on two points: the two
    # idempotents share one carrier, so e_x is their product z, while the
    # idempotent with the smallest carrier could be either.  Z/2 with a zero
    # acting trivially on one point has one germ, whose first pair (g, 0)
    # is not idempotent: its representative is (1, 0)
    cases = [(["z", "1"], [[0, 0], [0, 1]], {0: 0, 1: 1}, [1, 1]),
             (["1", "z"], [[0, 1], [1, 1]], {0: 0, 1: 1}, [1, 1]),
             (["g", "1", "z"], [[1, 0, 2], [0, 1, 2], [2, 2, 2]], {0: 0}, [1])]
    for labels, table, identity, blocks in cases:
        S = verify_inverse_semigroup(table, labels=labels)
        A = untwisted_action(S, [identity] * S.n)
        assert verify_twisted_action(A)[0] and verify_consequences(A)[0]
        G, R = germ_groupoid(A), ReferenceGermGroupoid(A)
        assert G.arrow_count == len(blocks)
        assert_same_germs(G, R)
        assert G.verify() == (True, [])
        alg = germ_algebra(A, G)
        assert block_decompose(alg) == blocks
        T = tables(alg)
        assert (T.products[(0, 0)], T.stars[0]) == reference_germ_tables(A, R)
    assert (G.reps[0], G.pair[0].src[0]) == (1, 0)


def reference_transition_conflicts(A):
    """The edges s < t at x, x in U(s*s), whose inclusion scalar
    conj(omega(t, s*s)) at theta_s(x) is not the reference transition."""
    S, R, out = A.S, ReferenceGermGroupoid(A), []
    for s in S.elements():
        e = S.mul(S.inv[s], s)
        for t in S.elements():
            if t != s and S.leq(s, t):
                out += [(s, t, x) for x in A.U[e] if R.transition(s, t, x) != scalar_conj(
                    ref_omega_at(A, t, e, A.theta[s][x]))]
    return out


def test_every_corrupted_inclusion_scalar_meets_the_reference_verdict():
    # each inclusion slot W[t, s*s, theta_s(x)], s < t, of I_3 and of a gauge
    # of it shifted by 1/3 in turn
    I3 = full_monoid_action(3)
    checked = 0
    for A in (I3, gauge_transform(I3, random_gauge(I3, random.Random(3)))):
        assert germ_groupoid(A).verify()[0] and not reference_transition_conflicts(A)
        F, N = A.frame, lcm(A.N, 3)
        for s, t in zip(*np.nonzero(F.leq & ~np.eye(F.n, dtype=bool))):
            e = F.T[F.inv[s], s]
            for x in np.flatnonzero(F.U[e]):
                W = widen(A.W, A.N, N).copy()
                W[t, e, F.th[s, x]] += N // 3
                M = TwistedAction.from_exponents(F, N, W % N)
                ok, bad = germ_groupoid(M).verify()
                assert {tag for tag, _ in bad} <= {"transition"}
                assert ok == (not reference_transition_conflicts(M)), (s, t, x)
                checked += 1
    assert checked == 180


def parity_cases():
    """The 33 convolution algebras and the germ algebras of the 40-action
    corpus, each as a maker of a fresh (algebra, reference) pair."""
    pick = random.Random(0)
    taus = [(G, tau) for G in (cyclic_group(2), cyclic_group(3), pair_groupoid([0, 1]))
            for tau in enumerate_cocycles(G, roots=4)]
    for G in (pair_groupoid([0, 1, 2]), transitive_z2_groupoid()):
        taus += [(G, tau) for tau in pick.sample(coboundary_cocycles(G, roots=2), 4)]
    taus.append(z2_nontrivial_cocycle())
    assert len(taus) == 33
    cases = [lambda G=G, tau=tau: (convolution_algebra(G, tau), reference_convolution(G, tau))
             for G, tau in taus]
    for A in corpus(random.Random(0), 40):
        cases.append(lambda A=A: (germ_algebra(A), reference_germ(A, ReferenceGermGroupoid(A))))
    return cases


def _same_tables(alg, ref):
    T = tables(alg)
    rows = {key: [(k, as_complex(c))] for key, (k, c) in T.products[(0, 0)].items()}
    stars = [T.stars[0][i] for i in range(ref.n)]
    v = np.arange(ref.n) * (1 + 2j)
    return (len(alg.carrier(0)) == ref.n
            and rows == {key: terms for key, terms in ref.mul.items() if terms}
            and [k for k, _ in stars] == ref.star_index
            and [as_complex(c) for _, c in stars] == ref.star_coeff
            and np.array_equal(left_regular(alg), ref.left_regular())
            and np.array_equal(star_vector(alg, v), ref.star_vector(v)))


def _corrupt(alg, ref, kind, rng):
    """Apply the same corruption to both: one product scalar or star scalar
    times a non-trivial root of unity, or one star target moved; return the
    corrupted algebra."""
    T = tables(alg)
    denom = rng.choice([2, 3, 4])
    phase = Angle(Fraction(rng.randrange(1, denom), denom))
    if kind == "product":
        rows = T.products[(0, 0)]
        key = rng.choice(list(rows))
        k, c = rows[key]
        rows[key] = (k, phase * c)
        ref.mul[key] = [(k, as_complex(phase * c))]
        return T.bundle()
    i = rng.randrange(ref.n)
    k, c = T.stars[0][i]
    if kind == "star":
        c = phase * c
        ref.star_coeff[i] = as_complex(c)
    else:
        k = rng.choice([m for m in range(ref.n) if m != k])
        ref.star_index[i] = k
    T.stars[0][i] = (k, c)
    return T.bundle()


def _blocks(decompose):
    try:
        return decompose()
    except NotSemisimpleDetected:
        return "not-semisimple"


def test_algebras_match_the_reference_star_algebra():
    rng = random.Random(7)
    mismatches, verdicts, profiles = [], set(), 0
    for n, make in enumerate(parity_cases()):
        alg, ref = make()
        if not _same_tables(alg, ref):
            mismatches.append(("tables", n))
        for kind in (None, "product", "star", "star-target"):
            alg, ref = make()
            if kind:
                alg = _corrupt(alg, ref, kind, rng)
            ok = alg.verify()[0]
            verdicts.add((kind, ok))
            if ok != ref.verify()[0]:
                mismatches.append(("verify", n, kind))
            blocks = _blocks(lambda: block_decompose(alg))
            profiles += isinstance(blocks, list)
            if blocks != _blocks(ref.block_decompose):
                mismatches.append(("blocks", n, kind))
    assert not mismatches, mismatches
    assert {(None, True), ("product", False), ("star", False), ("star-target", False)} <= verdicts
    assert profiles >= 73
