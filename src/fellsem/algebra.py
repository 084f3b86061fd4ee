"""Finite-dimensional *-algebras as one-fiber structure tables.

An algebra is a bundle.Bundle over the one-element inverse semigroup POINT:
its one fiber is the basis range(n), its product rows are the structure
constants and its star entries the basis-permuting involution, so
Bundle.verify checks its *-algebra axioms.  Covers twisted convolution
algebras of finite groupoids (a twisted action's germ algebra is the one
of its germ groupoid and twist) and a numerical block decomposition probe
based on the spectrum of a random self-adjoint central element.
"""

from __future__ import annotations

import numpy as np

from fellsem.action import GermGroupoid, TwistedAction
from fellsem.bundle import Bundle, SectionBundle
from fellsem.isg import verify_inverse_semigroup


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
    """The convolution algebra of the action's germ groupoid and twist
    (GermGroupoid.pair): basis element g is the point mass at germ g in
    canonical coordinates."""
    return convolution_algebra(*(germs or GermGroupoid(A)).pair)


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
