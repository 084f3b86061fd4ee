"""Structure-constant *-algebras and their block decompositions."""

import random
from fractions import Fraction

import numpy as np
import pytest

from fellsem.algebra import (NotSemisimpleDetected, block_decompose, convolution_algebra,
                             germ_algebra, left_regular, star_vector)
from fellsem.angles import Angle, as_complex, scalar_conj
from fellsem.action import GermGroupoid, germ_groupoid
from fellsem.generators import cocycle_action, corpus, full_monoid_action
from fellsem.groupoid import (TwoCocycle, coboundary_cocycles, cyclic_group,
                              enumerate_cocycles, pair_groupoid, transitive_z2_groupoid,
                              z2_nontrivial_cocycle)


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
    alg = _z3_algebra()
    rows = alg.products[(0, 0)]
    z, c = rows[(1, 2)]
    rows[(1, 2)] = (z, Angle("1/2") * c)
    ok, bad = alg.verify()
    assert not ok
    assert any(tag in ("associativity", "anti-multiplicative") for tag, _ in bad)


def test_broken_star_scalar_fails_verify():
    # g1* = -g2 while g2* = g1, so g1** = -g1
    alg = _z3_algebra()
    z, c = alg.stars[0][1]
    alg.stars[0][1] = (z, Angle("1/2") * c)
    ok, bad = alg.verify()
    assert not ok
    assert ("involutive", ("1", 1)) in bad


def test_broken_star_target_fails_verify():
    # g1* = g1, so (g1 g1)* = g2* = g1 while g1* g1* = g1 g1 = g2
    alg = _z3_algebra()
    _, c = alg.stars[0][1]
    alg.stars[0][1] = (1, c)
    ok, bad = alg.verify()
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
    mul = {(a, b): [(G.mul(a, b), as_complex(tau(a, b)))] if G.composable(a, b) else []
           for a in G.arrows() for b in G.arrows()}
    return ReferenceStarAlgebra(G.m, mul, [G.inv[c] for c in G.arrows()],
                                [as_complex(scalar_conj(tau(G.inv[c], c))) for c in G.arrows()])


def reference_germ(A, G):
    S, n = A.S, G.arrow_count
    mul = {}
    for g in range(n):
        sg, _ = G.rep(g)
        for h in range(n):
            th, xh = G.rep(h)
            mul[(g, h)] = []
            if G.rng(h) == G.src(g):
                st = S.mul(sg, th)
                k = G.germ(st, xh)
                coeff = A.omega_at(sg, th, A.theta[st](xh)) * G.transition(st, G.rep(k)[0], xh)
                mul[(g, h)] = [(k, as_complex(coeff))]
    star_index, star_coeff = [], []
    for g in range(n):
        s0, x = G.rep(g)
        y = A.theta[s0](x)
        gs = G.germ(S.inv[s0], y)
        coeff = (scalar_conj(A.omega_at(S.inv[s0], s0, x))
                 * G.transition(S.inv[s0], G.rep(gs)[0], y))
        star_index.append(gs)
        star_coeff.append(as_complex(coeff))
    return ReferenceStarAlgebra(n, mul, star_index, star_coeff)


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
        G = GermGroupoid(A)
        cases.append(lambda A=A, G=G: (germ_algebra(A, G), reference_germ(A, G)))
    return cases


def _same_tables(alg, ref):
    rows = {key: [(k, as_complex(c))] for key, (k, c) in alg.products[(0, 0)].items()}
    stars = [alg.stars[0][i] for i in range(ref.n)]
    v = np.arange(ref.n) * (1 + 2j)
    return (len(alg.carrier(0)) == ref.n
            and rows == {key: terms for key, terms in ref.mul.items() if terms}
            and [k for k, _ in stars] == ref.star_index
            and [as_complex(c) for _, c in stars] == ref.star_coeff
            and np.array_equal(left_regular(alg), ref.left_regular())
            and np.array_equal(star_vector(alg, v), ref.star_vector(v)))


def _corrupt(alg, ref, kind, rng):
    """Apply the same corruption to both: one product scalar or star scalar
    times a non-trivial root of unity, or one star target moved."""
    denom = rng.choice([2, 3, 4])
    phase = Angle(Fraction(rng.randrange(1, denom), denom))
    if kind == "product":
        rows = alg.products[(0, 0)]
        key = rng.choice(list(rows))
        k, c = rows[key]
        rows[key] = (k, phase * c)
        ref.mul[key] = [(k, as_complex(phase * c))]
        return
    i = rng.randrange(ref.n)
    k, c = alg.stars[0][i]
    if kind == "star":
        c = phase * c
        ref.star_coeff[i] = as_complex(c)
    else:
        k = rng.choice([m for m in range(ref.n) if m != k])
        ref.star_index[i] = k
    alg.stars[0][i] = (k, c)


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
                _corrupt(alg, ref, kind, rng)
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
