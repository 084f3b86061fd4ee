"""Ternary rings of operators as spans of complex matrices.

A TRO is a subspace M of n-by-n matrices closed under (x, y, z) -> x y* z.
Spans are kept as orthonormal bases from an SVD rank cut, and membership in
a span is one batched projection residual; closure is decided as
span(MM*)·M ⊆ M.  Association of a matrix u to M, regularity, ideals and
local regularity use the same rank and residual tests at a relative tolerance;
association's four span equalities are one stacked SVD and one batched
residual product.

A MatrixTRO is frozen and holds its basis as a tuple of read-only copies, so
what is derived from the basis cannot go stale: the closure verdict, the
orthonormal bases of M, MM* and M*M, the support projections of MM* and M*M
and the coordinates of the regularity trials are built once per tolerance,
on first use, and every later query reads them.  A rank alone is taken from
the singular values, without the singular vectors.

Regularity is decided in M's own coordinates.  In a TRO, m y lies in M
for m in M and y in M*M, and so does y m for y in MM*.  So the stack of
m R_j, over an orthonormal basis R_j of M*M, has the singular values of its
coordinates in an orthonormal basis of M, and the rank of m M*M is taken
from a dim(M*M)-by-dim(M) matrix, linear in the coefficients of m, in place
of dim(M*M) n-by-n matrices; the same holds for MM* m.  A span closed only
to within the tolerance keeps the n^2-wide stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = 1e-9
ROUNDING = 1e-12  # a relative residual read as rounding error, far below EPS


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


def _adjoints(mats):
    """The adjoint of each matrix of a stack."""
    return np.swapaxes(mats, -1, -2).conj()


def _orthonormal(mats, tol: float):
    """An orthonormal basis for the span of a stack of matrices, as a stack."""
    if len(mats) == 0:
        return mats[:0].copy()
    a = mats.reshape(len(mats), -1)
    if a.shape[0] > a.shape[1]:
        a = np.linalg.qr(a, mode="r")  # the same row space and singular values
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    return vh[:_rank(s, tol)].reshape(-1, *mats.shape[1:])


def span_basis(mats, tol: float = EPS):
    """An orthonormal basis (as matrices) for the span of the given matrices."""
    if len(mats) == 0:
        return []
    return list(_orthonormal(np.asarray(mats, dtype=complex), tol))


def span_dim(mats, tol: float = EPS) -> int:
    """The dimension of the span, from the singular values alone."""
    if len(mats) == 0:
        return 0
    a = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    return _rank(np.linalg.svd(a, compute_uv=False), tol)


def _inside(basis, mats, tol: float = EPS) -> bool:
    """Every matrix v in mats lies in the span of the orthonormal basis Q:
    the residual |v - v Q*Q| is at most tol * max(1, |v|)."""
    if len(mats) == 0:
        return True
    v = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    q = np.asarray(basis, dtype=complex).reshape(len(basis), v.shape[1])
    resid = np.linalg.norm(v - (v @ q.conj().T) @ q, axis=1)
    return bool(np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(v, axis=1))))


def _spans_onto_each(stacks, bases, tol: float) -> list:
    """span(stacks[i]) = span(bases[i]) for each i, for stacks of k matrices
    each and orthonormal bases: one SVD of all the stacks, and the
    residuals of their orthonormal bases against the bases, zero-padded to
    one height, in one batched product."""
    a = stacks.reshape(len(stacks), stacks.shape[1], -1)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    ranks = np.sum(s > tol * s[:, :1], axis=1)
    q = np.zeros((len(bases), max(map(len, bases)), a.shape[2]), dtype=complex)
    for i, Q in enumerate(bases):
        q[i, :len(Q)] = Q.reshape(len(Q), -1)
    resid = np.linalg.norm(vh - (vh @ _adjoints(q)) @ q, axis=2)
    fits = resid <= tol * np.maximum(1.0, np.linalg.norm(vh, axis=2))
    return [int(r) == len(Q) and bool(f[:r].all()) for r, Q, f in zip(ranks, bases, fits)]


def spans_equal(A, B, tol: float = EPS) -> bool:
    ba, bb = span_basis(A, tol), span_basis(B, tol)
    return len(ba) == len(bb) and _inside(bb, ba, tol)


@dataclass(frozen=True)
class MatrixTRO:
    """The span of `basis`, linearly independent n-by-n matrices, n = dim.

    The basis is kept as a tuple of read-only copies, so the spans and
    projections derived from it are built once per tolerance and kept.
    """

    dim: int
    basis: tuple = ()

    def __post_init__(self):
        n = self.dim
        mats = [np.asarray(m, dtype=complex) for m in self.basis]
        for m in mats:
            if m.shape != (n, n):
                raise DimensionMismatch(f"basis matrix has shape {m.shape}")
        stack = np.array(mats, dtype=complex).reshape(len(mats), n, n)
        stack.flags.writeable = False
        object.__setattr__(self, "basis", tuple(stack))
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "_memo", {})
        if span_dim(stack) != len(mats):
            raise TroError("basis is linearly dependent")

    def _get(self, what: str, tol: float):
        """A read-only stack, built on first use at each tol: the orthonormal
        basis of M ("basis"), of MM* ("left") or of M*M ("right"), the
        support projection of MM* ("p_left") or of M*M ("p_right"), or the
        trial coordinates ("coords"): for the basis B of M, the orthonormal
        bases R of M*M and L of MM*, and the orthonormal basis Q of M at EPS,
        G[c, 0, j] is the coordinates in Q of B_c R_j and G[c, 1, j] those
        of L_j B_c, zero past dim M*M or dim MM*; where one of these products
        leaves span(Q) by more than rounding, G holds the products
        themselves, n^2 entries wide."""
        key = (what, tol)
        value = self._memo.get(key)
        if value is None:
            B, n = self._stack, self.dim
            if what == "basis":
                value = _orthonormal(B, tol)
            elif what == "left":
                value = _orthonormal(_products(B, _adjoints(B), n), tol)
            elif what == "right":
                value = _orthonormal(_products(_adjoints(B), B, n), tol)
            elif what == "coords":
                k, R, L = len(B), self._get("right", tol), self._get("left", tol)
                prods = np.concatenate([np.tensordot(B, R, (2, 1)).transpose(0, 2, 1, 3),  # B_c R_j
                                        np.tensordot(L, B, (2, 1)).transpose(2, 0, 1, 3)],  # L_j B_c
                                       axis=1).reshape(k, -1, n * n)
                # coordinates in M's orthonormal basis at EPS, unless a
                # product leaves it, as where M is closed only to within tol
                q = self._get("basis", EPS)
                if _inside(q, prods.reshape(-1, n * n), ROUNDING):
                    prods = prods @ q.reshape(len(q), -1).conj().T
                value = np.zeros((k, 2, max(len(R), len(L)), prods.shape[2]), dtype=complex)
                value[:, 0, :len(R)], value[:, 1, :len(L)] = prods[:, :len(R)], prods[:, len(R):]
            else:
                value = support_projection(self._get(what[2:], tol), n, tol)
            value.flags.writeable = False
            self._memo[key] = value
        return value

    def is_tro(self, tol: float = EPS) -> bool:
        """span{x y* z} = span(MM*)·M, so closure is decided on the products
        a z of orthonormal bases of MM* and M, once per tol."""
        key = ("closed", tol)
        closed = self._memo.get(key)
        if closed is None:
            sp = self._get("basis", tol)
            closed = self._memo[key] = _inside(sp, _products(self._get("left", tol), sp, self.dim), tol)
        return closed

    @classmethod
    def from_matrices(cls, mats) -> "MatrixTRO":
        """The span of mats, kept as the orthonormal basis span_basis gives,
        which is also its orthonormal basis at the default tolerance."""
        mats = [np.asarray(m, dtype=complex) for m in mats]
        M = cls(mats[0].shape[0], span_basis(mats))
        M._memo[("basis", EPS)] = M._stack
        return M


def support_projection(alg, n: int, tol: float = EPS):
    """The unit projection of a *-closed matrix algebra span: the orthogonal
    projection onto the joint column space of its elements."""
    if len(alg) == 0:
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
    B, sp = M._stack, M._get("basis", tol)
    Bh, uh = _adjoints(B), u.conj().T
    a, b, c, d = _spans_onto_each(np.stack([Bh @ u, u @ Bh, u @ uh @ B, B @ uh @ u]),
                                  [M._get("right", tol), M._get("left", tol), sp, sp], tol)
    p_right, p_left = M._get("p_right", tol), M._get("p_left", tol)
    strict_right = bool(np.linalg.norm(uh @ u - p_right) <= tol * max(1.0, np.linalg.norm(p_right)))
    strict_left = bool(np.linalg.norm(u @ uh - p_left) <= tol * max(1.0, np.linalg.norm(p_left)))
    pi = bool(np.linalg.norm(u @ uh @ u - u) <= tol * max(1.0, np.linalg.norm(u)))
    return AssociationReport(a, b, c, d, strict_left, strict_right, pi)


def polar_isometry(m, tol: float = EPS):
    """The partial-isometry factor of the polar decomposition of m."""
    m = np.asarray(m, dtype=complex)
    u, s, vh = np.linalg.svd(m)
    rank = _rank(s, tol)
    return u[:, :rank] @ vh[:rank, :]


def strict_correction(u, M: MatrixTRO, tol: float = EPS):
    """Cut u down by the support projections of MM* and M*M."""
    return M._get("p_left", tol) @ np.asarray(u, dtype=complex) @ M._get("p_right", tol)


def is_regular(M: MatrixTRO, trials: int = 16, rng=None, tol: float = EPS):
    """Randomized regularity test.

    Samples Gaussian elements m of M; m works iff dim(m M*M) = dim M =
    dim(MM* m), a rank obstruction that generic elements meet whenever any
    element does.  Returns (True, witness partial isometry) or
    (False, trial log).

    Both ranks are read in M's coordinates.  In a TRO, m y lies in M for y
    in M*M, and y m for y in MM*.  So for orthonormal bases R_j of M*M and
    L_j of MM*, the stacks m R_j and L_j m have the singular values of
    their coordinates in an orthonormal basis of M, and these are c·G for
    the coefficients c of m (G = M._get("coords", tol)): dim(M*M)-by-dim M
    and dim(MM*)-by-dim M matrices in place of n^2-wide stacks.  Where M is
    closed only to within tol, G keeps the products n^2 wide, so the ranks
    are the same either way.  Trial 0 runs alone, and a regular M passes
    it; otherwise the other trials are ranked in one stacked SVD, and the
    rng is wound back and drawn again up to the first that passes, so it
    ends where a loop over the trials would stop.
    """
    import random as _random
    rng = rng or _random.Random(0)
    if not M.is_tro(tol):
        raise NotATRO("span is not closed under x y* z")
    k = len(M.basis)
    if k == 0:
        return True, np.zeros((M.dim, M.dim), dtype=complex)
    G = M._get("coords", tol)

    def draw(count):
        return [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
                for _ in range(count)]

    def dims(coeffs):
        """dim(m M*M) and dim(MM* m) for each coefficient list of m."""
        C = np.array(coeffs, dtype=complex).reshape(-1, k) @ G.reshape(k, -1)
        s = np.linalg.svd(C.reshape(-1, *G.shape[1:]), compute_uv=False)
        return np.sum(s > tol * s[..., :1], axis=-1)

    coeffs = draw(min(trials, 1))
    found = dims(coeffs)
    if trials > 1 and not (found == k).all():
        state = rng.getstate()
        coeffs += draw(trials - 1)
        found = np.concatenate([found, dims(coeffs[1:])])
    passed = np.flatnonzero((found == k).all(axis=1))
    if passed.size:
        t = int(passed[0])
        if t:
            rng.setstate(state)
            draw(t)
        m = sum(c * b for c, b in zip(coeffs[t], M.basis))
        return True, strict_correction(polar_isometry(m, tol), M, tol)
    return False, [{"trial": t, "dim_mMM": int(d1), "dim_MMm": int(d2), "dim_M": k}
                   for t, (d1, d2) in enumerate(found)]


def is_ideal(N: MatrixTRO, M: MatrixTRO, tol: float = EPS) -> bool:
    if N.dim != M.dim:
        raise DimensionMismatch("ambient dimensions differ")
    if not _inside(M._get("basis", tol), N._stack, tol):
        raise NotSubspace("N is not contained in M")
    n = M.dim
    grown = np.concatenate([_products(N._stack, M._get("right", tol), n),
                            _products(M._get("left", tol), N._stack, n)])
    return _inside(N._get("basis", tol), grown, tol)


def principal_ideal(m, M: MatrixTRO, tol: float = EPS):
    """The smallest TRO ideal of M containing m.  M must be a TRO at tol:
    the products of a span that is not closed leave it."""
    if not M.is_tro(tol):
        raise NotATRO("span is not closed under x y* z")
    n = M.dim
    mm, mstar_m = M._get("left", tol), M._get("right", tol)
    current = _orthonormal(np.asarray(m, dtype=complex).reshape(1, n, n), tol)
    while True:
        grown = np.concatenate([current, _products(mm, current, n),
                                _products(current, mstar_m, n)])
        nxt = _orthonormal(grown, tol)
        if len(nxt) == len(current):
            return list(nxt)
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
        sub._memo[("basis", tol)] = sub._stack  # principal_ideal made it orthonormal at tol
        ok, _ = is_regular(sub, trials, rng, tol)
        if ok:
            regular_parts.extend(ideal)
    if not regular_parts:
        return len(M.basis) == 0
    return _spans_onto_each(np.array(regular_parts)[None], [M._get("basis", tol)], tol)[0]


def column_tro(n: int = 2) -> MatrixTRO:
    """The first-column TRO in n-by-n matrices; not regular for n > 1."""
    basis = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, 0] = 1
        basis.append(m)
    return MatrixTRO(n, basis)
