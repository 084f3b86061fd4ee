"""Finite-dimensional *-algebras as one-fiber structure tables.

An algebra is a bundle.Bundle over the one-element inverse semigroup POINT:
its one fiber is the basis range(n), its product rows are the structure
constants and its star entries the basis-permuting involution, so
Bundle.verify checks its *-algebra axioms.  Covers twisted convolution
algebras of finite groupoids, the algebra of a twisted action in germ
coordinates, and a numerical block decomposition probe based on the
spectrum of a random self-adjoint central element.
"""

from __future__ import annotations

import numpy as np

from fellsem.action import GermGroupoid, TwistedAction, _exponent_dtype
from fellsem.bundle import Bundle, SectionBundle
from fellsem.isg import first_true, verify_inverse_semigroup


POINT = verify_inverse_semigroup([[0]], labels=["1"])


class AlgebraError(ValueError):
    pass


class NotSemisimpleDetected(AlgebraError):
    pass


def left_regular(alg: Bundle):
    """Left multiplication matrices L[i] acting on coefficient vectors;
    the element with coefficients a acts as np.tensordot(a, L, 1)."""
    n = len(alg.carrier(0))
    _, i, j, k = alg.products[:4]
    L = np.zeros((n, n, n), dtype=complex)
    L[i, k, j] = alg.values[0]
    return L


def star_vector(alg: Bundle, coeffs):
    _, i, k = alg.stars[:3]
    out = np.zeros(len(alg.carrier(0)), dtype=complex)
    np.add.at(out, k, np.conj(np.asarray(coeffs)[i]) * alg.values[1])
    return out


def convolution_algebra(G, tau) -> Bundle:
    """Twisted convolution, d_a d_b = tau(a,b) d_ab and d_a* =
    conj(tau(a,a^-1)) d_{a^-1}: the section bundle of the one bisection
    holding every arrow."""
    return SectionBundle(G, tau, POINT, [frozenset(G.arrows())])


def germ_algebra(A: TwistedAction, germs: GermGroupoid | None = None) -> Bundle:
    """The algebra spanned by germ point masses in canonical coordinates.

    Basis element g is the point mass at the range of the germ's canonical
    representative (t0, x), living in the fiber over t0; products and
    adjoints re-enter canonical coordinates through the germ groupoid's
    coordinates.  The scalars are sums of the action's omega exponents and
    the coordinates' exponents, both mod A.N; a needed omega value that is
    not an Angle raises ActionError.
    """
    G, S, F = germs or GermGroupoid(A), A.S, A.frame
    n, index = G.arrow_count, F.index
    rows, stars, at, star_at = [], [], [], []  # where each scalar's omega is read, and its coordinate
    for g in range(n):
        sg, x = G.rep(g)
        for h in range(n):
            if G.rng(h) == G.src(g):
                th, xh = G.rep(h)
                st = S.mul(sg, th)
                rows.append((g, h, G.germ(st, xh)))
                at.append((sg, th, index[A.theta[st](xh)], G.coords[(st, xh)]))
        y, sgs = A.theta[sg](x), S.inv[sg]
        stars.append((g, G.germ(sgs, y)))
        star_at.append((sgs, sg, index[x], G.coords[(sgs, y)]))  # conjugated below
    m, N, at = len(rows), A.N, at + star_at
    s, t, y = (np.array([a[i] for a in at], dtype=np.intp) for i in range(3))
    c = np.array([a[3] for a in at], dtype=_exponent_dtype(N))
    w = A.W[s, t, y]
    if (w < 0).any():
        i = first_true(w < 0)[0]
        raise A._bad_value(s[i], t[i], F.points[y[i]], "is not an angle")
    E = (np.where(np.arange(len(at)) < m, w, -w) + c) % N
    g, h, k = np.array(rows, dtype=np.intp).reshape(-1, 3).T
    gs, ks = np.array(stars, dtype=np.intp).reshape(-1, 2).T
    zero = np.zeros(n, dtype=np.intp)
    return Bundle(POINT, [range(n)], N, (zero[g], g, h, k, E[:m], None), (zero[gs], gs, ks, E[m:], None),
                  (zero, np.arange(n), np.arange(n), zero, None), "germ", A=A, germs=G)


def _gns_rep(alg: Bundle, L):
    """Left regular matrices in coordinates where the trace form is the
    standard inner product, making them a *-representation."""
    n = len(L)
    basis = np.eye(n, dtype=complex)
    gram = np.zeros((n, n), dtype=complex)
    for i in range(n):
        li_star = np.tensordot(star_vector(alg, basis[i]), L, 1)
        for j in range(n):
            gram[i, j] = np.trace(li_star @ L[j])
    gram = (gram + gram.conj().T) / 2
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NotSemisimpleDetected("trace form is not positive definite") from None
    R = low.conj().T
    Rinv = np.linalg.inv(R)
    return [R @ Li @ Rinv for Li in L]


def _center_basis(L, tol: float = 1e-9):
    """The null vectors of the commutator map a -> [L_i, a], stacked over i
    with one batched matmul."""
    n = len(L)
    P = np.matmul(L[:, None], L[None])  # [i, j]: L_i L_j
    K = (P - P.transpose(1, 0, 2, 3)).transpose(0, 2, 3, 1).reshape(n ** 3, n)
    _, s, vh = np.linalg.svd(K, full_matrices=False)
    null = [vh[i].conj() for i in range(len(vh)) if i >= len(s) or s[i] <= tol * max(1.0, s[0])]
    return null


def block_decompose(alg: Bundle, tol: float = 1e-6, rng=None, attempts: int = 8):
    """Block dimensions of the algebra as a sorted list.

    A random self-adjoint central element is diagonalized in the left
    regular representation; each block of dimension d contributes an
    eigenvalue of multiplicity d*d.
    """
    import random as _random
    rng = rng or _random.Random(0)
    L = left_regular(alg)
    n = len(L)
    pis = _gns_rep(alg, L)
    center = _center_basis(L)
    if not center:
        raise NotSemisimpleDetected("algebra has trivial center and nonzero dimension")
    for _ in range(attempts):
        coeffs = np.zeros(n, dtype=complex)
        for c in center:
            coeffs += complex(rng.gauss(0, 1), rng.gauss(0, 1)) * c
        coeffs = coeffs + star_vector(alg, coeffs)
        Z = sum(coeffs[i] * pis[i] for i in range(n))
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
