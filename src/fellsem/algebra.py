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

from fellsem.action import GermGroupoid, TwistedAction, mod
from fellsem.bundle import Bundle, SectionBundle
from fellsem.isg import first_true, verify_inverse_semigroup


POINT = verify_inverse_semigroup([[0]], labels=["1"])
ATTEMPTS = 8  # random central elements block_decompose tries


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
    not an angle raises ActionError.
    """
    G, F, N = germs or GermGroupoid(A), A.frame, A.N
    r, src, rng = G.reps, G.src_i, G.rng_i
    g, h = np.nonzero(G.table >= 0)
    k, st = G.table[g, h], F.T[r[g], r[h]]
    ri = F.inv[r]
    # each scalar's omega and coordinate: the rows', then the stars' (conjugated)
    s, t = np.concatenate([r[g], ri]), np.concatenate([r[h], r])
    y = np.concatenate([F.th[st, src[h]], src])
    c = np.concatenate([G.K[st, src[h]], G.K[ri, rng]])
    w = A.W[s, t, y]
    if (w < 0).any():
        i = first_true(w < 0)[0]
        raise A._bad_value(s[i], t[i], F.points[y[i]], "is not an angle")
    m, n = len(g), G.arrow_count
    E = mod(np.where(np.arange(len(s)) < m, w, -w) + c, N)
    zero, ar = np.zeros(n, dtype=np.intp), np.arange(n)
    return Bundle(POINT, [range(n)], N, (zero[g], g, h, k, E[:m], None), (zero, ar, G.of[ri, rng], E[m:], None),
                  (zero, ar, ar, zero, None), "germ", A=A, germs=G)


def _gns_rep(alg: Bundle, L):
    """Left regular matrices in coordinates where the trace form is the
    standard inner product, making them a *-representation."""
    n, (_, i, k) = len(L), alg.stars[:3]
    star = np.zeros((n, n), dtype=complex)  # row i: the adjoint of the i-th basis element
    np.add.at(star, (i, k), alg.values[1])
    gram = np.einsum("iab,jba->ij", np.tensordot(star, L, 1), L)  # [i, j]: tr(L_i* L_j)
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


def block_decompose(alg: Bundle, tol: float = 1e-6, rng=None):
    """Block dimensions of the algebra as a sorted list.

    A random self-adjoint central element is diagonalized in the left
    regular representation; each block of dimension d contributes an
    eigenvalue of multiplicity d*d.
    """
    import random as _random
    rng = rng or _random.Random(0)
    L = left_regular(alg)
    pis = _gns_rep(alg, L)
    center = _center_basis(L)
    if not center:
        raise NotSemisimpleDetected("algebra has trivial center and nonzero dimension")
    for _ in range(ATTEMPTS):
        coeffs = sum(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * c for c in center)
        coeffs = coeffs + star_vector(alg, coeffs)
        Z = sum(c * pi for c, pi in zip(coeffs, pis))
        Z = (Z + Z.conj().T) / 2
        eig = np.linalg.eigvalsh(Z)
        scale = max(1.0, float(np.max(np.abs(eig))))
        # eigvalsh sorts: a cluster ends where the next eigenvalue is farther
        cuts = np.flatnonzero(np.diff(eig) > tol * scale) + 1
        sizes = np.diff(cuts, prepend=0, append=len(eig))
        dims = np.rint(np.sqrt(sizes)).astype(int)
        if (dims * dims == sizes).all():
            return sorted(dims.tolist())
    raise NotSemisimpleDetected("eigenvalue multiplicities are not perfect squares")
