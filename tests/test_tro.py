"""Ternary rings of operators: association, regularity, ideals."""

import numpy as np
import pytest

from fellsem.tro import (MatrixTRO, NotSubspace, check_association, column_tro,
                         is_ideal, is_locally_regular, is_regular, polar_isometry,
                         principal_ideal, span_basis, span_dim, spans_equal,
                         strict_correction)


def corner_tro(n, rows, cols):
    basis = []
    for i in rows:
        for j in cols:
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = 1
            basis.append(m)
    return MatrixTRO(n, basis)


def test_corner_spans_are_tros():
    assert corner_tro(3, [0, 1], [1, 2]).is_tro()
    assert corner_tro(4, [0], [0, 1, 2, 3]).is_tro()


def test_non_tro_span_detected():
    # E11 + E12 alone: products leave the span
    m = np.zeros((2, 2), dtype=complex)
    m[0, 0] = m[0, 1] = 1
    e21 = np.zeros((2, 2), dtype=complex)
    e21[1, 0] = 1
    M = MatrixTRO(2, [m, e21])
    assert not M.is_tro()


def test_square_corner_is_regular(rng):
    M = corner_tro(3, [0, 1], [1, 2])
    ok, witness = is_regular(M, rng=rng)
    assert ok
    rep = check_association(witness, M)
    assert rep.associated and rep.strict and rep.partial_isometry


def test_rectangular_corner_is_not_regular(rng):
    M = corner_tro(3, [0, 1], [2])
    ok, log = is_regular(M, rng=rng)
    assert not ok
    assert all(entry["dim_M"] == 2 for entry in log)


def test_column_tro_not_regular_nor_locally_regular(rng):
    C = column_tro(2)
    ok, _ = is_regular(C, rng=rng)
    assert not ok
    assert not is_locally_regular(C, rng=rng)


def test_commutative_corner_is_locally_regular(rng):
    # diagonal TRO: commutative, a sum of one-dimensional regular ideals
    D = MatrixTRO(3, [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])])
    assert D.is_tro()
    assert is_regular(D, rng=rng)[0]
    assert is_locally_regular(D, rng=rng)


def test_polar_isometry_and_strict_correction():
    m = np.array([[3.0, 0], [0, 0]], dtype=complex)
    u = polar_isometry(m)
    assert np.allclose(u @ u.conj().T @ u, u)
    M = MatrixTRO.from_matrices([m])
    w = strict_correction(u, M)
    rep = check_association(w, M)
    assert rep.strict and rep.partial_isometry


def test_lemma_implications_on_structured_pairs(rng):
    # the two-out-of-four implication patterns among the association
    # properties, exercised where the hypotheses actually hold
    M = corner_tro(4, [0, 1], [2, 3])
    hits = 0
    for _ in range(40):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in M.basis]
        m = sum(c * b for c, b in zip(coeffs, M.basis))
        u = strict_correction(polar_isometry(m), M)
        r = check_association(u, M)
        for hyp, conc in [((r.a and r.b), r.c), ((r.a and r.b), r.d),
                          ((r.a and r.c), r.b), ((r.b and r.d), r.c)]:
            if hyp:
                hits += 1
                assert conc
    assert hits > 0


def test_principal_ideal_growth():
    M = corner_tro(3, [0, 1, 2], [0, 1, 2])  # all of M_3
    e = np.zeros((3, 3), dtype=complex)
    e[0, 0] = 1
    ideal = principal_ideal(e, M)
    assert len(ideal) == 9  # M_3 is simple
    N = MatrixTRO(3, ideal)
    assert is_ideal(N, M)


def test_ideal_membership_requires_containment():
    M = corner_tro(2, [0], [0])
    N = corner_tro(2, [1], [1])
    with pytest.raises(NotSubspace):
        is_ideal(N, M)


def test_span_utilities():
    e11 = np.diag([1.0, 0])
    e22 = np.diag([0, 1.0])
    assert span_dim([e11, e22, e11 + e22]) == 2
    assert spans_equal([e11, e22], [e11 + e22, e11 - e22])
    assert not spans_equal([e11], [e22])


# Reference oracle for the projection path: membership by one least-squares
# solve per matrix, and closure checked on all k^3 triples x y* z.

def in_span_ref(m, basis, tol=1e-9):
    if not basis:
        return np.linalg.norm(m) <= tol
    a = np.array([b.reshape(-1) for b in basis]).T
    v = np.asarray(m, dtype=complex).reshape(-1)
    coeff, *_ = np.linalg.lstsq(a, v, rcond=None)
    return np.linalg.norm(a @ coeff - v) <= tol * max(1.0, np.linalg.norm(v))


def is_tro_ref(M, tol=1e-9):
    sp = span_basis(M.basis, tol)
    return all(in_span_ref(x @ y.conj().T @ z, sp, tol)
               for x in M.basis for y in M.basis for z in M.basis)


def spans_equal_ref(A, B, tol=1e-9):
    ba, bb = span_basis(A, tol), span_basis(B, tol)
    return len(ba) == len(bb) and all(in_span_ref(m, bb, tol) for m in ba)


def _unitary(npr, n):
    q, _ = np.linalg.qr(npr.standard_normal((n, n)) + 1j * npr.standard_normal((n, n)))
    return q


def _parity_spans(npr):
    """80 spans of each kind, 2 <= n <= 4: unitarily rotated corner TROs, the same
    with one basis element perturbed by 1e-2 .. 1e-7, and random spans."""
    for i in range(240):
        n = int(npr.integers(2, 5))
        kind = i % 3
        if kind == 2:
            k = int(npr.integers(1, n * n + 1))
            yield kind, [npr.standard_normal((n, n)) + 1j * npr.standard_normal((n, n))
                         for _ in range(k)]
            continue
        rows = npr.choice(n, size=int(npr.integers(1, n + 1)), replace=False)
        cols = npr.choice(n, size=int(npr.integers(1, n + 1)), replace=False)
        u, v = _unitary(npr, n), _unitary(npr, n)
        mats = [u @ np.eye(n)[:, [r]] @ np.eye(n)[[c], :] @ v for r in rows for c in cols]
        if kind == 1:
            j = int(npr.integers(len(mats)))
            mats[j] = mats[j] + 10.0 ** -int(npr.integers(2, 8)) * npr.standard_normal((n, n))
        yield kind, mats


def test_projection_closure_matches_least_squares_oracle():
    npr = np.random.default_rng(11)
    verdicts = {0: set(), 1: set(), 2: set()}
    previous = None
    for kind, mats in _parity_spans(npr):
        M = MatrixTRO.from_matrices(mats)
        ok = M.is_tro()
        assert ok == is_tro_ref(M), (kind, M.dim, len(M.basis))
        verdicts[kind].add(ok)
        # spans_equal against the same span recombined, and against its
        # predecessor of equal ambient dimension
        g = npr.standard_normal((len(mats), len(mats)))
        mixed = [sum(c * m for c, m in zip(row, mats)) for row in g]
        assert spans_equal(mats, mixed) == spans_equal_ref(mats, mixed)
        if previous is not None and previous[0].shape == mats[0].shape:
            assert spans_equal(mats, previous) == spans_equal_ref(mats, previous)
        previous = mats
    assert verdicts[0] == {True}
    assert verdicts[1] == {True, False}  # perturbations of full algebras stay closed
    assert verdicts[2] == {True, False}  # k = n^2 spans are all of M_n
