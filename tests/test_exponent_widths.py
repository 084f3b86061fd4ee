"""Exponents at the edges of their widths.

Exponents mod N are held in the narrowest signed width that holds a sum
of four of them (fellsem.action.WIDTHS).  Each test builds its input at N
= b, 3b/2 and 2b for each width's bound b, with every positive term of
the sums it checks at N - 1, and compares verdicts, violation lists and
JSON with the same identities computed in Python integers: by the
references, which add Fractions, and by a twin of the input at the
modulus N P, P = 2**61 - 1, whose exponents are Python integers.
"""

import random
from collections import Counter

import numpy as np
import pytest

from fellsem.action import (INT64_MODULUS, OUTSIDE, WIDTHS, GermGroupoid, TwistedAction,
                            _exponent_dtype, gauge_transform, held, mod, siebenize,
                            verify_consequences, verify_twisted_action, widen)
from fellsem.bundle import Bundle, build_bundle, extract_action
from fellsem.generators import full_monoid_action, random_gauge
from fellsem.groupoid import TwoCocycle, cyclic_group, pair_groupoid, verify_cocycle

from dense import gauge_functions, multiplier_functions, tables
from test_bundle_kernel import ref_bundle_verify
from test_bundle_rows import ref_extract_action
from test_exponent_kernel import ref_gauge_transform, ref_verify_consequences, ref_verify_twisted_action

# each width's bound, fixed here rather than read from the code under test
BOUNDS = (2 ** 5, 2 ** 13, 2 ** 29, 2 ** 61)
MODULI = [N for b in BOUNDS for N in (b, 3 * b // 2, 2 * b)]
P = 2 ** 61 - 1  # a prime: N P is past every width


def _twin(K, N):
    """Exponents mod N as exponents mod N P, Python integers."""
    return N * P, widen(np.asarray(K, dtype=object), N, N * P)


def _same(check, one, two):
    """check gives the same verdict and violation list on both inputs."""
    assert check(one) == check(two), check.__name__


def _siebenized(A):
    """The JSON of siebenize's action, or the exception it raises."""
    try:
        return siebenize(A)[1].to_json()
    except ValueError as e:  # GaugeNotUnitAtIdempotent, on omega not one at idempotents
        return type(e), str(e)


@pytest.mark.parametrize("N", MODULI)
def test_each_width_holds_a_sum_of_four(N):
    dtype = _exponent_dtype(N)
    if N > INT64_MODULUS:
        assert dtype is object
        return
    top, bottom = np.iinfo(dtype).max, np.iinfo(dtype).min
    assert 4 * (N - 1) <= top and -4 * N >= bottom  # a sum, and mod's floor times N
    assert [b for b, _ in WIDTHS] == list(BOUNDS)
    narrower = [d for _, d in WIDTHS if np.iinfo(d).bits < np.iinfo(dtype).bits]
    assert all(4 * (N - 1) > np.iinfo(d).max for d in narrower)
    K = np.full(4, N - 1, dtype=dtype)
    assert int((K[:1] + K[1:2] + K[2:3] + K[3:]).item()) == 4 * (N - 1)
    assert int(mod(-K[:1] - K[1:2] - K[2:3] - K[3:], N).item()) == -4 * (N - 1) % N


def _gauged_i2(N):
    """I_2 with every omega value at N - 1 and a gauge at N - 1 on every
    element that is not idempotent, so chi_s(y) chi_t(theta_s^-1 y)
    omega(s, t)(y) conj(chi_st(y)) sums three terms N - 1 where st is
    idempotent."""
    A = full_monoid_action(2)
    F, S = A.frame, A.S
    moved = np.array([not S.is_idempotent(s) for s in S.elements()])[:, None]
    return F, np.where(F.fib_of_product, N - 1, OUTSIDE), np.where(F.fib, np.where(moved, N - 1, 0), OUTSIDE)


@pytest.mark.parametrize("N", MODULI)
def test_gauge_sums_at_the_width_boundaries(N):
    F, W, C = _gauged_i2(N)
    A, chi = TwistedAction.from_exponents(F, N, W), (N, C)
    twin_N, twin_W = _twin(W, N)
    twin = TwistedAction.from_exponents(F, twin_N, twin_W)
    gauged = gauge_transform(A, chi)
    assert A.W.dtype == _exponent_dtype(N) and gauged.W.dtype == _exponent_dtype(N)

    # each slot's sum in Python integers
    T, thi, Cl, Wl, most = F.T.tolist(), F.thi.tolist(), C.tolist(), W.tolist(), 0
    for s, t, y in zip(*np.nonzero(F.fib_of_product)):
        total = Cl[s][y] + Cl[t][thi[s][y]] - Cl[T[s][t]][y] + Wl[s][t][y]
        assert gauged.W[s, t, y] == total % N
        most = max(most, total)
    assert most == 3 * (N - 1)

    twin_gauged = gauge_transform(twin, _twin(C, N))
    ref = ref_gauge_transform(A, gauge_functions(A, chi))
    assert gauged.to_json() == twin_gauged.to_json() == ref.to_json()
    for check, ref_check in ((verify_twisted_action, ref_verify_twisted_action),
                             (verify_consequences, ref_verify_consequences)):
        _same(check, gauged, twin_gauged)
        ok, bad = check(gauged)
        ref_ok, ref_bad = ref_check(ref)
        assert ok == ref_ok and Counter(bad) == Counter(ref_bad)
    assert GermGroupoid(gauged).K.dtype == _exponent_dtype(N)
    assert _siebenized(gauged) == _siebenized(twin_gauged) == _siebenized(ref)


@pytest.mark.parametrize("N", MODULI)
def test_cocycle_sums_at_the_width_boundaries(N):
    # omega(s, t) at N - 1 where s is not idempotent: the cocycle identity
    # at (r, s, t, x) adds omega(s, t)(x) and omega(r, st)(y), both N - 1
    # when r and s are not idempotent
    A0 = full_monoid_action(2)
    F, S = A0.frame, A0.S
    moved = np.array([not S.is_idempotent(s) for s in S.elements()])[:, None, None]
    W = np.where(F.fib_of_product, np.where(moved, N - 1, 0), OUTSIDE)
    A = TwistedAction.from_exponents(F, N, W)
    twin = TwistedAction.from_exponents(F, *_twin(W, N))
    ok, bad = verify_twisted_action(A)
    assert not ok and any(tag == "cocycle" for tag, _ in bad)
    _same(verify_twisted_action, A, twin)
    _same(verify_consequences, A, twin)
    ref_ok, ref_bad = ref_verify_twisted_action(A)
    assert ok == ref_ok and Counter(bad) == Counter(ref_bad)

    # a 2-cocycle's identity tau(a,b) tau(ab,c) = tau(b,c) tau(a,bc), its
    # exponents N - 1 or 0, against the same identity on Fractions
    rng = random.Random(N % 1000)
    for G in (cyclic_group(3), pair_groupoid([0, 1, 2])):
        K = np.array([rng.choice([0, N - 1]) for _ in G.pair_a], dtype=object)
        tau = TwoCocycle.from_exponents(G, N, K)
        assert tau.K.dtype == _exponent_dtype(N)
        twin_tau = TwoCocycle.from_exponents(G, *_twin(K, N))
        ok, bad = verify_cocycle(G, tau)
        assert (ok, bad) == verify_cocycle(G, twin_tau)
        arrows = G.arrows()
        want = [(a, b, c) for a in arrows for b in arrows for c in arrows
                if G.composable(a, b) and G.composable(b, c)
                and (tau(a, b) + tau(G.mul(a, b), c) - tau(b, c) - tau(a, G.mul(b, c))).denominator != 1]
        assert sorted(v for tag, v in bad if tag == "cocycle") == sorted(want)


def _scaled_bundle(N):
    """The rows of I_2's bundle with every product and inclusion scalar at
    N - 1, and every star scalar at N - 1 off the idempotent fibers and 0
    on them: in anti-multiplicativity, (delta_x delta_y)* against delta_y*
    delta_x* for s, t not idempotent and st idempotent, the right side
    scales by three exponents N - 1, and the difference of the two sides
    is one exponent 0 less four N - 1."""
    B = build_bundle(full_monoid_action(2))
    S = B.S
    moved = np.array([not S.is_idempotent(s) for s in S.elements()])
    (*p, K, _), (*s, sK, _), (*i, iK, _) = B.products, B.stars, B.inclusions
    rows = ((*p, np.full(len(K), N - 1), None), (*s, np.where(moved[s[0]], N - 1, 0), None),
            (*i, np.full(len(iK), N - 1), None))
    twin = [(*cols, _twin(K, N)[1], V) for *cols, K, V in rows]
    return (Bundle(S, B.points, N, *rows, B.realization),
            Bundle(S, B.points, N * P, *twin, B.realization))


@pytest.mark.parametrize("N", MODULI)
def test_bundle_sums_at_the_width_boundaries(N):
    B, twin = _scaled_bundle(N)
    assert all(rows[-2].dtype == _exponent_dtype(N) for rows in (B.products, B.stars, B.inclusions))
    ok, bad = B.verify()
    assert not ok and any(tag == "anti-multiplicative" for tag, _ in bad)
    assert (ok, bad) == twin.verify()
    ref_ok, ref_bad = ref_bundle_verify(tables(B))
    assert ok == ref_ok and Counter(bad) == Counter(ref_bad)
    # the complex lookups compare exponents only while a sum keeps its sign
    # (Lookup.far), so at tolerance 0 a wrapped sum would read as a failure
    for L, twin_L in ((B.lookup(), twin.lookup()), (B.lookup(exact=False), twin.lookup(exact=False))):
        assert L.exact_violations(0.0) == twin_L.exact_violations(0.0)
        K = held(np.full(1, N - 1), N)
        for V in (None, np.ones(1, dtype=complex)) if not L.exact else (None,):
            _, total, _ = L.scaled(np.zeros(1, dtype=np.intp), *[(K, V)] * 3)
            assert total.tolist() == [3 * (N - 1)]

    # extraction multiplies u_s u_t by a product scalar: three exponents
    # N - 1 where s and t are not idempotent
    W = B.W
    live = np.arange(W) < B.cs[:, None]
    moved = np.array([not B.S.is_idempotent(s) for s in B.S.elements()])[:, None]
    K = np.where(live, np.where(moved, N - 1, 0), OUTSIDE)
    u = (N, K, None)
    A = extract_action(B, u)
    assert A.W.dtype == _exponent_dtype(N)
    ref = ref_extract_action(tables(B), multiplier_functions(B, u))
    assert A.to_json() == extract_action(twin, (*_twin(K, N), None)).to_json() == ref.to_json()


def test_the_gauged_i4_is_held_in_int8():
    # the benchmark's gauges have N = 12
    A = full_monoid_action(4)
    gauged = gauge_transform(A, random_gauge(A, random.Random(1)))
    B = build_bundle(gauged)
    G = GermGroupoid(gauged)
    chi, fixed = siebenize(gauged)
    assert gauged.N == 12
    assert [a.dtype for a in (A.W, gauged.W, G.K, chi[1], fixed.W)] == [np.int8] * 5
    assert [rows[-2].dtype for rows in (B.products, B.stars, B.inclusions)] == [np.int8] * 3
    assert verify_consequences(gauged)[0] and G.verify()[0]


def test_a_cast_that_would_wrap_raises():
    assert held(np.array([0, 31, OUTSIDE]), 32).dtype == np.int8
    with pytest.raises(ValueError, match="out of range"):
        held(np.array([200]), 32)
    assert held(np.array([3]), 2 ** 62).dtype == object
