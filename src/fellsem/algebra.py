"""Finite-dimensional *-algebras from structure constants.

Covers twisted convolution algebras of finite groupoids, the algebra of a
twisted action in germ coordinates, and a numerical block decomposition
probe based on the spectrum of a random self-adjoint central element.
"""

from __future__ import annotations

import numpy as np

from fellsem.angles import as_complex, scalar_conj
from fellsem.action import TwistedAction, GermGroupoid


class AlgebraError(ValueError):
    pass


class NotSemisimpleDetected(AlgebraError):
    pass


class StarAlgebra:
    """Basis labels, structure constants and a basis-permuting involution.

    mul[(i, j)] is a list of (k, coefficient); the involution sends basis
    element i to star_coeff[i] times basis element star_index[i].
    """

    def __init__(self, labels, mul, star_index, star_coeff):
        self.n = len(labels)
        self.labels = list(labels)
        self.mul = {key: [(k, complex(c)) for k, c in terms] for key, terms in mul.items()}
        self.star_index = list(star_index)
        self.star_coeff = [complex(c) for c in star_coeff]

    def left_regular(self):
        """Left multiplication matrices L[i] acting on coefficient vectors;
        the element with coefficients a acts as np.tensordot(a, L, 1)."""
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

    def verify(self, tol: float = 1e-9):
        """Associativity, involutivity and anti-multiplicativity of star."""
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


def convolution_algebra(G, tau) -> StarAlgebra:
    """Twisted convolution: d_a d_b = tau(a,b) d_ab, d_c* = conj(tau(c^-1,c)) d_{c^-1}."""
    mul = {}
    for a in G.arrows():
        for b in G.arrows():
            if G.composable(a, b):
                mul[(a, b)] = [(G.mul(a, b), as_complex(tau(a, b)))]
            else:
                mul[(a, b)] = []
    star_index = [G.inv[c] for c in G.arrows()]
    star_coeff = [as_complex(scalar_conj(tau(G.inv[c], c))) for c in G.arrows()]
    return StarAlgebra(G.labels, mul, star_index, star_coeff)


def germ_algebra(A: TwistedAction, germs: GermGroupoid | None = None) -> StarAlgebra:
    """The algebra spanned by germ point masses in canonical coordinates.

    Basis element g is the point mass at the range of the germ's canonical
    representative (t0, x), living in the fiber over t0; products re-enter
    canonical coordinates through the transition scalars.
    """
    G = germs or GermGroupoid(A)
    S = A.S
    n = G.arrow_count
    mul = {}
    for g in range(n):
        sg, _ = G.rep(g)
        for h in range(n):
            th, xh = G.rep(h)
            if G.rng(h) != G.src(g):
                mul[(g, h)] = []
                continue
            st = S.mul(sg, th)
            k = G.germ(st, xh)
            k0, _ = G.rep(k)
            y = A.theta[st](xh)
            coeff = A.omega_at(sg, th, y) * G.transition(st, k0, xh)
            mul[(g, h)] = [(k, as_complex(coeff))]
    star_index = []
    star_coeff = []
    for g in range(n):
        s0, x = G.rep(g)
        y = A.theta[s0](x)
        s0s = S.inv[s0]
        gs = G.germ(s0s, y)
        t1, _ = G.rep(gs)
        coeff = scalar_conj(A.omega_at(s0s, s0, x)) * G.transition(s0s, t1, y)
        star_index.append(gs)
        star_coeff.append(as_complex(coeff))
    labels = [f"[{S.label(G.rep(g)[0])},{G.rep(g)[1]}]" for g in range(n)]
    return StarAlgebra(labels, mul, star_index, star_coeff)


def _gns_rep(alg: StarAlgebra):
    """Left regular matrices in coordinates where the trace form is the
    standard inner product, making them a *-representation."""
    L = alg.left_regular()
    n = alg.n
    basis = np.eye(n, dtype=complex)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        li_star = np.tensordot(alg.star_vector(basis[i]), L, 1)
        for j in range(n):
            gram[i, j] = np.trace(li_star @ L[j])
    gram = (gram + gram.conj().T) / 2
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NotSemisimpleDetected("trace form is not positive definite") from None
    R = low.conj().T
    Rinv = np.linalg.inv(R)
    return [R @ Li @ Rinv for Li in L], R, Rinv


def _center_basis(alg: StarAlgebra, tol: float = 1e-9):
    L = alg.left_regular()
    n = alg.n
    rows = []
    for Li in L:
        block = np.zeros((n * n, n), dtype=complex)
        for j in range(n):
            block[:, j] = (Li @ L[j] - L[j] @ Li).reshape(-1)
        rows.append(block)
    K = np.vstack(rows)
    _, s, vh = np.linalg.svd(K)
    null = [vh[i].conj() for i in range(len(vh)) if i >= len(s) or s[i] <= tol * max(1.0, s[0])]
    return null


def block_decompose(alg: StarAlgebra, tol: float = 1e-6, rng=None, attempts: int = 8):
    """Block dimensions of the algebra as a sorted list.

    A random self-adjoint central element is diagonalized in the left
    regular representation; each block of dimension d contributes an
    eigenvalue of multiplicity d*d.
    """
    import random as _random
    rng = rng or _random.Random(0)
    pis, _, _ = _gns_rep(alg)
    center = _center_basis(alg)
    if not center:
        raise NotSemisimpleDetected("algebra has trivial center and nonzero dimension")
    for _ in range(attempts):
        coeffs = np.zeros(alg.n, dtype=complex)
        for c in center:
            coeffs += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * c
        coeffs = coeffs + alg.star_vector(coeffs)
        Z = sum(coeffs[i] * pis[i] for i in range(alg.n))
        Z = (Z + Z.conj().T) / 2
        eig = np.linalg.eigvalsh(Z)
        scale = max(1.0, float(np.max(np.abs(eig))))
        clusters = []
        for v in eig:
            if clusters and abs(v - clusters[-1][-1]) <= tol * scale:
                clusters[-1].append(v)
            else:
                clusters.append([v])
        dims = []
        ok = True
        for cl in clusters:
            d = int(round(len(cl) ** 0.5))
            if d * d != len(cl):
                ok = False
                break
            dims.append(d)
        if ok:
            return sorted(dims)
    raise NotSemisimpleDetected("eigenvalue multiplicities are not perfect squares")
