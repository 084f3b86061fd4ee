"""Ternary rings of operators: association, regularity, ideals."""

import dataclasses
import random

import numpy as np
import pytest

from fellsem.tro import (AssociationReport, MatrixTRO, NotATRO, NotSubspace, TroError,
                         check_association, column_tro, is_ideal, is_locally_regular,
                         is_regular, polar_isometry, principal_ideal, span_basis, span_dim,
                         spans_equal, strict_correction)


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


def test_principal_ideal_needs_a_tro():
    # E02 perturbed by 1e-4: the span is closed at 1e-3 but not at 1e-5,
    # where its products would grow the "ideal" to all of M_4
    noise = np.random.default_rng(5).standard_normal((4, 4))
    M = MatrixTRO.from_matrices([np.eye(4)[:, [0]] @ np.eye(4)[[j]] + (j == 2) * 1e-4 * noise
                                 for j in (1, 2)])
    assert len(M.basis) == 2 and not M.is_tro(1e-5)
    with pytest.raises(NotATRO):
        principal_ideal(M.basis[0], M, 1e-5)
    assert M.is_tro(1e-3)
    assert 1 <= len(principal_ideal(M.basis[0], M, 1e-3)) <= 2


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


def test_basis_is_a_frozen_copy():
    mats = [np.diag([1.0, 0, 0]), np.diag([0, 1.0, 0])]
    M = MatrixTRO(3, mats)
    assert isinstance(M.basis, tuple)
    with pytest.raises(ValueError):
        M.basis[0][0, 0] = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        M.basis = (np.eye(3),)
    u = np.diag([1.0, 1.0, 0]).astype(complex)
    before = (M.is_tro(), check_association(u, M), is_regular(M, rng=random.Random(1))[0],
              is_locally_regular(M, rng=random.Random(1)))
    # the caller's arrays are copied: writing them changes nothing in M
    mats[0][:] = 1.0
    mats[1][0, 2] = 7.0
    assert np.array_equal(M.basis[0], np.diag([1.0, 0, 0]))
    after = (M.is_tro(), check_association(u, M), is_regular(M, rng=random.Random(1))[0],
             is_locally_regular(M, rng=random.Random(1)))
    assert after == before
    closed, report, regular, local = before
    assert closed and report.strict and regular and local
    with pytest.raises(TroError):
        MatrixTRO(3, [np.eye(3), 2 * np.eye(3)])


# Reference oracle for the memoised path: the former implementations, which
# rebuild every span, algebra and support projection from M.basis at each call.

def ref_span_basis(mats, tol=1e-9):
    if len(mats) == 0:
        return []
    a = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    _, s, vh = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > tol * s[0])) if s.size else 0
    return list(vh[:rank].reshape(-1, *np.shape(mats[0])))


def ref_inside(basis, mats, tol=1e-9):
    if len(mats) == 0:
        return True
    v = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    q = np.asarray(basis, dtype=complex).reshape(len(basis), v.shape[1])
    resid = np.linalg.norm(v - (v @ q.conj().T) @ q, axis=1)
    return bool(np.all(resid <= tol * np.maximum(1.0, np.linalg.norm(v, axis=1))))


def ref_spans_equal(A, B, tol=1e-9):
    ba, bb = ref_span_basis(A, tol), ref_span_basis(B, tol)
    return len(ba) == len(bb) and ref_inside(bb, ba, tol)


def ref_left(M, tol=1e-9):
    return ref_span_basis([x @ y.conj().T for x in M.basis for y in M.basis], tol)


def ref_right(M, tol=1e-9):
    return ref_span_basis([x.conj().T @ y for x in M.basis for y in M.basis], tol)


def ref_support_projection(alg, n, tol=1e-9):
    if not alg:
        return np.zeros((n, n), dtype=complex)
    u, s, _ = np.linalg.svd(np.hstack(alg), full_matrices=False)
    q = u[:, :int(np.sum(s > tol * s[0]))]
    return q @ q.conj().T


def ref_is_tro(M, tol=1e-9):
    sp = ref_span_basis(M.basis, tol)
    return ref_inside(sp, [a @ z for a in ref_left(M, tol) for z in sp], tol)


def ref_check_association(u, M, tol=1e-9):
    u = np.asarray(u, dtype=complex)
    mm, mstar_m = ref_left(M, tol), ref_right(M, tol)
    a = ref_spans_equal([m.conj().T @ u for m in M.basis], mstar_m, tol)
    b = ref_spans_equal([u @ m.conj().T for m in M.basis], mm, tol)
    c = ref_spans_equal([u @ u.conj().T @ m for m in M.basis], M.basis, tol)
    d = ref_spans_equal([m @ u.conj().T @ u for m in M.basis], M.basis, tol)
    p_right = ref_support_projection(mstar_m, M.dim, tol)
    p_left = ref_support_projection(mm, M.dim, tol)
    strict_right = bool(np.linalg.norm(u.conj().T @ u - p_right) <= tol * max(1.0, np.linalg.norm(p_right)))
    strict_left = bool(np.linalg.norm(u @ u.conj().T - p_left) <= tol * max(1.0, np.linalg.norm(p_left)))
    pi = bool(np.linalg.norm(u @ u.conj().T @ u - u) <= tol * max(1.0, np.linalg.norm(u)))
    return AssociationReport(a, b, c, d, strict_left, strict_right, pi)


def ref_strict_correction(u, M, tol=1e-9):
    p_left = ref_support_projection(ref_left(M, tol), M.dim, tol)
    p_right = ref_support_projection(ref_right(M, tol), M.dim, tol)
    return p_left @ np.asarray(u, dtype=complex) @ p_right


def ref_is_regular(M, trials=16, rng=None, tol=1e-9):
    rng = rng or random.Random(0)
    if not ref_is_tro(M, tol):
        raise NotATRO("span is not closed under x y* z")
    k = len(M.basis)
    if k == 0:
        return True, np.zeros((M.dim, M.dim), dtype=complex)
    mstar_m, mm = ref_right(M, tol), ref_left(M, tol)
    log = []
    for trial in range(trials):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
        m = sum(c * b for c, b in zip(coeffs, M.basis))
        d1 = len(ref_span_basis([m @ a for a in mstar_m], tol))
        d2 = len(ref_span_basis([a @ m for a in mm], tol))
        if d1 == k and d2 == k:
            return True, ref_strict_correction(polar_isometry(m, tol), M, tol)
        log.append({"trial": trial, "dim_mMM": d1, "dim_MMm": d2, "dim_M": k})
    return False, log


def ref_is_ideal(N, M, tol=1e-9):
    if not ref_inside(ref_span_basis(M.basis, tol), N.basis, tol):
        raise NotSubspace("N is not contained in M")
    mstar_m, mm = ref_right(M, tol), ref_left(M, tol)
    return ref_inside(ref_span_basis(N.basis, tol), [n @ a for n in N.basis for a in mstar_m]
                      + [a @ n for n in N.basis for a in mm], tol)


def ref_principal_ideal(m, M, tol=1e-9):
    if not ref_is_tro(M, tol):
        raise NotATRO("span is not closed under x y* z")
    mm, mstar_m = ref_left(M, tol), ref_right(M, tol)
    current = ref_span_basis([np.asarray(m, dtype=complex)], tol)
    while True:
        grown = list(current)
        grown += [a @ x for a in mm for x in current]
        grown += [x @ a for x in current for a in mstar_m]
        nxt = ref_span_basis(grown, tol)
        if len(nxt) == len(current):
            return nxt
        current = nxt


def ref_is_locally_regular(M, trials=16, rng=None, tol=1e-9):
    rng = rng or random.Random(0)
    if not ref_is_tro(M, tol):
        raise NotATRO("span is not closed under x y* z")
    regular_parts = []
    for m in M.basis:
        ideal = ref_principal_ideal(m, M, tol)
        ok, _ = ref_is_regular(MatrixTRO(M.dim, ideal), trials, rng, tol)
        if ok:
            regular_parts.extend(ideal)
    return ref_spans_equal(regular_parts, M.basis, tol) if regular_parts else len(M.basis) == 0


def _projector(basis, n):
    q = np.asarray(basis, dtype=complex).reshape(len(basis), n * n)
    return q.conj().T @ q


def _corner_spans(npr, count):
    """Unitarily rotated corner TROs with 2 <= n <= 8, every second one with
    one basis element perturbed by 1e-2 .. 1e-7."""
    for i in range(count):
        n = int(npr.integers(2, 9))
        rows = npr.choice(n, size=int(npr.integers(1, n + 1)), replace=False)
        cols = npr.choice(n, size=int(npr.integers(1, n + 1)), replace=False)
        u, v = _unitary(npr, n), _unitary(npr, n)
        mats = [u @ np.eye(n)[:, [r]] @ np.eye(n)[[c], :] @ v for r in rows for c in cols]
        if i % 2:
            j = int(npr.integers(len(mats)))
            mats[j] = mats[j] + 10.0 ** -int(npr.integers(2, 8)) * npr.standard_normal((n, n))
        yield 1 + i % 2, mats


def _mismatches(M, npr, seed, tol=1e-9, local=True):
    """The queries on which M, through the memo, and the reference differ."""
    bad = []
    n, k = M.dim, len(M.basis)

    def same(name, new, ref):
        if isinstance(new, np.ndarray):
            if new.shape != ref.shape or np.linalg.norm(new - ref) > 1e-12:
                bad.append(name)
        elif new != ref:
            bad.append(name)

    def outcome(f, *args, **kw):
        try:
            return f(*args, **kw)
        except (NotATRO, NotSubspace) as exc:
            return type(exc)

    same("is_tro", M.is_tro(tol), ref_is_tro(M, tol))
    coeffs = npr.standard_normal(k) + 1j * npr.standard_normal(k)
    m = sum(c * b for c, b in zip(coeffs, M.basis))
    noise = npr.standard_normal((n, n)) + 1j * npr.standard_normal((n, n))
    same("strict_correction", strict_correction(polar_isometry(m), M, tol),
         ref_strict_correction(polar_isometry(m), M, tol))
    polar = ref_strict_correction(polar_isometry(m), M, tol)
    for i, u in enumerate([noise, polar, polar + 0.25 * noise]):
        same(f"check_association[{i}]", check_association(u, M, tol),
             ref_check_association(u, M, tol))
    rng_new, rng_ref = random.Random(seed), random.Random(seed)
    new, ref = outcome(is_regular, M, rng=rng_new, tol=tol), outcome(ref_is_regular, M, rng=rng_ref, tol=tol)
    if isinstance(new, tuple) and isinstance(ref, tuple):
        same("is_regular", new[0], ref[0])
        same("is_regular detail", new[1], ref[1])
    else:
        same("is_regular raises", new, ref)
    same("is_regular rng", rng_new.random(), rng_ref.random())
    ideal, ref_ideal = outcome(principal_ideal, m, M, tol), outcome(ref_principal_ideal, m, M, tol)
    if not (isinstance(ideal, list) and isinstance(ref_ideal, list)):
        same("principal_ideal raises", ideal, ref_ideal)
    elif len(ideal) != len(ref_ideal):
        bad.append("principal_ideal dim")
    else:
        same("principal_ideal span", _projector(ideal, n), _projector(ref_ideal, n))
        if ideal:
            N = MatrixTRO(n, ideal)
            same("is_ideal", outcome(is_ideal, N, M, tol), outcome(ref_is_ideal, N, M, tol))
    if local:
        same("is_locally_regular",
             outcome(is_locally_regular, M, rng=random.Random(seed), tol=tol),
             outcome(ref_is_locally_regular, M, rng=random.Random(seed), tol=tol))
    return bad


def test_memoised_queries_match_the_reference():
    npr = np.random.default_rng(23)
    mismatches, kinds = [], {0: 0, 1: 0, 2: 0}
    spans = list(_parity_spans(npr)) + list(_corner_spans(npr, 40))
    for i, (kind, mats) in enumerate(spans):
        M = MatrixTRO.from_matrices(mats)
        kinds[kind] += 1
        # is_locally_regular costs a principal ideal and a regularity test
        # per basis element; run it on the small spans
        bad = _mismatches(M, npr, seed=i, local=len(M.basis) <= 4)
        mismatches += [(i, kind, M.dim, len(M.basis), b) for b in bad]
    assert mismatches == [], f"{len(mismatches)} mismatches: {mismatches[:10]}"
    assert min(kinds.values()) >= 80


def _answers(M, tol):
    """is_tro, an association report, a strict correction, is_regular and a
    principal ideal (as its projector) of M at tol, on fixed probes."""
    npr = np.random.default_rng(9)
    n, k = M.dim, len(M.basis)
    u = npr.standard_normal((n, n)) + 1j * npr.standard_normal((n, n))
    m = sum(c * b for c, b in zip(npr.standard_normal(k), M.basis))
    try:
        ok, detail = is_regular(M, rng=random.Random(3), tol=tol)
    except NotATRO:
        ok, detail = None, None
    try:
        ideal = _projector(principal_ideal(m, M, tol), n)
    except NotATRO:
        ideal = None
    return [M.is_tro(tol), check_association(u, M, tol), strict_correction(u, M, tol),
            ok, detail, ideal]


def _agree(xs, ys):
    return all(np.allclose(x, y, rtol=0, atol=1e-12) if isinstance(x, np.ndarray) else x == y
               for x, y in zip(xs, ys))


def test_a_second_tolerance_is_not_served_from_the_first():
    npr = np.random.default_rng(5)
    differ = 0
    for kind, mats in _corner_spans(npr, 16):
        M = MatrixTRO.from_matrices(mats)
        at_1e9 = _answers(M, 1e-9)
        at_1e3 = _answers(M, 1e-3)
        assert _agree(at_1e3, _answers(MatrixTRO.from_matrices(mats), 1e-3))
        differ += not _agree(at_1e9, at_1e3)
    assert differ > 0  # the two tolerances give different answers on some span


class _ZeroFirst(random.Random):
    """A Random whose first `zeros` gauss draws are 0.0, so that a
    regularity trial drawn from them has m = 0."""

    def __init__(self, seed, zeros):
        super().__init__(seed)
        self.zeros = zeros

    def gauss(self, mu=0.0, sigma=1.0):
        if self.zeros:
            self.zeros -= 1
            return 0.0
        return super().gauss(mu, sigma)


def test_a_later_trial_replays_the_rng():
    # trial 0 draws m = 0 and fails; trial 1 passes, so the batched trials
    # are ranked together and the rng is drawn again up to trial 1
    M = corner_tro(4, [0, 2], [1, 3])
    k = len(M.basis)
    rng_new, rng_ref = _ZeroFirst(7, 2 * k), _ZeroFirst(7, 2 * k)
    ok, witness = is_regular(M, rng=rng_new)
    ref_ok, ref_witness = ref_is_regular(M, rng=rng_ref)
    assert ok and ref_ok
    assert np.linalg.norm(witness - ref_witness) <= 1e-12
    assert rng_new.random() == rng_ref.random()
    assert not is_regular(M, trials=1, rng=_ZeroFirst(7, 2 * k))[0]


@pytest.mark.parametrize("tol", [1e-3, 1e-5])
def test_coarse_tolerances_match_the_reference(tol):
    # half the spans are perturbed, so some are closed only to within tol
    # and their products leave M: there the trials are ranked n^2 wide
    npr = np.random.default_rng(40)
    mismatches, widths = [], set()
    for i, (kind, mats) in enumerate(list(_corner_spans(npr, 40))):
        M = MatrixTRO.from_matrices(mats)
        mismatches += [(i, kind, b) for b in _mismatches(M, npr, seed=i, tol=tol, local=False)]
        if M.is_tro(tol):
            widths.add(M._get("coords", tol).shape[-1] == M.dim ** 2)
    assert mismatches == []
    assert widths == {True, False}
