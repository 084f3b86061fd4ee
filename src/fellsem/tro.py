"""Ternary rings of operators as spans of complex matrices.

A TRO is a subspace M of n-by-n matrices closed under (x, y, z) -> x y* z.
Spans are kept as orthonormal bases from an SVD rank cut, and membership in
a span is one batched projection residual; closure is decided as
span(MM*)·M ⊆ M.  Association of a matrix u to M, regularity, ideals and
local regularity use the same rank and residual tests at a relative tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

EPS = 1e-9


class TroError(ValueError):
    pass


class DimensionMismatch(TroError):
    pass


class NotATRO(TroError):
    pass


class NotSubspace(TroError):
    pass


def _rank(s, tol: float) -> int:
    """The number of singular values s (in decreasing order) above tol * s[0]."""
    return int(np.sum(s > tol * s[0])) if s.size else 0


def _products(A, B, n: int):
    """The n-by-n products a b, for a in A and b in B, as one array."""
    A = np.asarray(A, dtype=complex).reshape(-1, n, n)
    B = np.asarray(B, dtype=complex).reshape(-1, n, n)
    return (A[:, None] @ B[None]).reshape(-1, n, n)


def span_basis(mats, tol: float = EPS):
    """An orthonormal basis (as matrices) for the span of the given matrices."""
    if len(mats) == 0:
        return []
    a = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return list(vh[:_rank(s, tol)].reshape(-1, *np.shape(mats[0])))


def span_dim(mats, tol: float = EPS) -> int:
    return len(span_basis(mats, tol))


def _inside(basis, mats, tol: float = EPS) -> bool:
    """Every matrix v in mats lies in the span of the orthonormal basis Q:
    the residual |v - v Q*Q| is at most tol * max(1, |v|)."""
    if len(mats) == 0:
        return True
    v = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    q = np.asarray(basis, dtype=complex).reshape(len(basis), v.shape[1])
    resid = np.linalg.norm(v - (v @ q.conj().T) @ q, axis=1)
    return bool(np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(v, axis=1))))


def spans_equal(A, B, tol: float = EPS) -> bool:
    ba, bb = span_basis(A, tol), span_basis(B, tol)
    return len(ba) == len(bb) and _inside(bb, ba, tol)


def span_contains(A, B, tol: float = EPS) -> bool:
    """Every element of B lies in span(A)."""
    return _inside(span_basis(A, tol), B, tol)


@dataclass
class MatrixTRO:
    dim: int
    basis: list = field(default_factory=list)

    def __post_init__(self):
        self.basis = [np.asarray(m, dtype=complex) for m in self.basis]
        for m in self.basis:
            if m.shape != (self.dim, self.dim):
                raise DimensionMismatch(f"basis matrix has shape {m.shape}")
        if span_dim(self.basis) != len(self.basis):
            raise TroError("basis is linearly dependent")

    def is_tro(self, tol: float = EPS) -> bool:
        """span{x y* z} = span(MM*)·M, so closure is decided on the products
        a z of orthonormal bases of MM* and M."""
        sp = span_basis(self.basis, tol)
        return _inside(sp, _products(left_algebra(self, tol), sp, self.dim), tol)

    @classmethod
    def from_matrices(cls, mats) -> "MatrixTRO":
        mats = [np.asarray(m, dtype=complex) for m in mats]
        return cls(mats[0].shape[0], span_basis(mats))


def right_algebra(M: MatrixTRO, tol: float = EPS):
    """Span of M*M."""
    return span_basis(_products([x.conj().T for x in M.basis], M.basis, M.dim), tol)


def left_algebra(M: MatrixTRO, tol: float = EPS):
    """Span of MM*."""
    return span_basis(_products(M.basis, [y.conj().T for y in M.basis], M.dim), tol)


def support_projection(alg, n: int, tol: float = EPS):
    """The unit projection of a *-closed matrix algebra span: the orthogonal
    projection onto the joint column space of its elements."""
    if not alg:
        return np.zeros((n, n), dtype=complex)
    cols = np.hstack([np.asarray(m, dtype=complex) for m in alg])
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    q = u[:, :_rank(s, tol)]
    return q @ q.conj().T


@dataclass
class AssociationReport:
    a: bool  # M* u  spans M* M
    b: bool  # u M*  spans M M*
    c: bool  # u u* M spans M
    d: bool  # M u* u spans M
    strict_left: bool   # u u* = 1_{MM*}
    strict_right: bool  # u* u = 1_{M*M}
    partial_isometry: bool

    @property
    def associated(self) -> bool:
        return self.a and self.b and self.c and self.d

    @property
    def strict(self) -> bool:
        return self.associated and self.strict_left and self.strict_right


def check_association(u, M: MatrixTRO, tol: float = EPS) -> AssociationReport:
    u = np.asarray(u, dtype=complex)
    if u.shape != (M.dim, M.dim):
        raise DimensionMismatch("u has wrong shape")
    mm = left_algebra(M, tol)
    mstar_m = right_algebra(M, tol)
    a = spans_equal([m.conj().T @ u for m in M.basis], mstar_m, tol)
    b = spans_equal([u @ m.conj().T for m in M.basis], mm, tol)
    c = spans_equal([u @ u.conj().T @ m for m in M.basis], M.basis, tol)
    d = spans_equal([m @ u.conj().T @ u for m in M.basis], M.basis, tol)
    p_right = support_projection(mstar_m, M.dim, tol)
    p_left = support_projection(mm, M.dim, tol)
    strict_right = bool(np.linalg.norm(u.conj().T @ u - p_right) <= tol * max(1.0, np.linalg.norm(p_right)))
    strict_left = bool(np.linalg.norm(u @ u.conj().T - p_left) <= tol * max(1.0, np.linalg.norm(p_left)))
    pi = bool(np.linalg.norm(u @ u.conj().T @ u - u) <= tol * max(1.0, np.linalg.norm(u)))
    return AssociationReport(a, b, c, d, strict_left, strict_right, pi)


def polar_isometry(m, tol: float = EPS):
    """The partial-isometry factor of the polar decomposition of m."""
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = _rank(s, tol)
    return u[:, :rank] @ vh[:rank, :]


def strict_correction(u, M: MatrixTRO, tol: float = EPS):
    """Cut u down by the support projections of MM* and M*M."""
    p_left = support_projection(left_algebra(M, tol), M.dim, tol)
    p_right = support_projection(right_algebra(M, tol), M.dim, tol)
    return p_left @ np.asarray(u, dtype=complex) @ p_right


def is_regular(M: MatrixTRO, trials: int = 16, rng=None, tol: float = EPS):
    """Randomized regularity test.

    Samples Gaussian elements m of M; m works iff dim(m M*M) = dim M =
    dim(MM* m), a rank obstruction that generic elements meet whenever any
    element does.  Returns (True, witness partial isometry) or
    (False, trial log).
    """
    import random as _random
    rng = rng or _random.Random(0)
    if not M.is_tro(tol):
        raise NotATRO("span is not closed under x y* z")
    k = len(M.basis)
    if k == 0:
        return True, np.zeros((M.dim, M.dim), dtype=complex)
    mstar_m = right_algebra(M, tol)
    mm = left_algebra(M, tol)
    log = []
    for trial in range(trials):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
        m = sum(c * b for c, b in zip(coeffs, M.basis))
        d1 = span_dim([m @ a for a in mstar_m], tol)
        d2 = span_dim([a @ m for a in mm], tol)
        if d1 == k and d2 == k:
            # strict_correction, with the algebras built above
            p_left = support_projection(mm, M.dim, tol)
            p_right = support_projection(mstar_m, M.dim, tol)
            return True, p_left @ polar_isometry(m, tol) @ p_right
        log.append({"trial": trial, "dim_mMM": d1, "dim_MMm": d2, "dim_M": k})
    return False, log


def is_ideal(N: MatrixTRO, M: MatrixTRO, tol: float = EPS) -> bool:
    if N.dim != M.dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not span_contains(M.basis, N.basis, tol):
        raise NotSubspace("N is not contained in M")
    mstar_m, mm = right_algebra(M, tol), left_algebra(M, tol)
    return span_contains(N.basis, [n @ a for n in N.basis for a in mstar_m]
                         + [a @ n for n in N.basis for a in mm], tol)


def principal_ideal(m, M: MatrixTRO, tol: float = EPS):
    """The smallest TRO ideal of M containing m."""
    mm = left_algebra(M, tol)
    mstar_m = right_algebra(M, tol)
    current = span_basis([np.asarray(m, dtype=complex)], tol)
    while True:
        grown = list(current)
        grown += [a @ x for a in mm for x in current]
        grown += [x @ a for x in current for a in mstar_m]
        nxt = span_basis(grown, tol)
        if len(nxt) == len(current):
            return nxt
        current = nxt


def is_locally_regular(M: MatrixTRO, trials: int = 16, rng=None, tol: float = EPS) -> bool:
    """True iff the regular principal ideals of basis elements span M."""
    import random as _random
    rng = rng or _random.Random(0)
    if not M.is_tro(tol):
        raise NotATRO("span is not closed under x y* z")
    regular_parts = []
    for m in M.basis:
        ideal = principal_ideal(m, M, tol)
        sub = MatrixTRO(M.dim, ideal)
        ok, _ = is_regular(sub, trials, rng, tol)
        if ok:
            regular_parts.extend(ideal)
    return spans_equal(regular_parts, M.basis, tol) if regular_parts else len(M.basis) == 0


def column_tro(n: int = 2) -> MatrixTRO:
    """The first-column TRO in n-by-n matrices; not regular for n > 1."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, 0] = 1
        basis.append(m)
    return MatrixTRO(n, basis)
