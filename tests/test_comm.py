"""Exact circle scalars and functions on finite carriers."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fellsem.angles import Angle, as_angle, as_complex
from fellsem.partial_maps import CarrierMismatch, CFunction, PartialBijection

from dense import (add, compose, conjugate, extend, multiply, point_mass, pullback, restrict,
                   scalar_conj, scalar_mul, scale, sup_norm)


def test_angle_arithmetic_is_exact():
    a = Angle("1/3")
    b = Angle("1/2")
    assert a * b == Angle("5/6")
    assert a * a * a == Angle(0)
    assert a.conj() == Angle("2/3")
    assert (a / b) == Angle(Fraction(5, 6))
    assert a ** 3 == 1
    assert b == -1
    assert Angle("1/4").value == 1j


def test_angle_mixed_with_complex_scalars():
    a = Angle("1/4")
    assert a * 2 == 2j
    assert scalar_mul(a, a.conj()) == 1
    assert scalar_mul(0, a) == 0
    assert scalar_conj(a) == Angle("3/4")
    assert as_complex(a) == 1j
    assert as_angle(Fraction(1, 2)) == Angle("1/2")
    assert as_angle("2/3") == Angle("2/3")
    with pytest.raises((TypeError, ValueError)):
        as_angle(0.3 + 0.1j)


def test_partial_bijection_composition_and_inverse():
    f = PartialBijection({0: 1, 1: 2})
    g = PartialBijection({1: 0, 2: 2})
    # maximal domain: points of dom(g) that g sends into dom(f)
    fg = compose(f, g)
    assert fg.domain == frozenset({1}) and fg(1) == 1
    assert compose(f.invert(), f) == PartialBijection.identity([0, 1])
    assert restrict(f, [0]).range == frozenset({1})
    assert 0 in f and 2 not in f
    assert compose(PartialBijection.empty(), f) == PartialBijection.empty()


def test_partial_bijection_union_compatibility():
    f = PartialBijection({0: 1})
    g = PartialBijection({2: 3})
    assert f.union_compatible(g)
    assert f.union(g) == PartialBijection({0: 1, 2: 3})
    assert not f.union_compatible(PartialBijection({0: 2}))  # conflicting value
    assert not f.union_compatible(PartialBijection({5: 1}))  # breaks injectivity


def test_cfunction_basic_algebra():
    carrier = frozenset({0, 1})
    f = CFunction(carrier, {0: Angle("1/2"), 1: 2 + 0j})
    assert f(0) == -1 and f.at(1) == 2
    assert f(2) == 0
    assert multiply(f, conjugate(f)).at(1) == pytest.approx(4)
    assert f.support() == {0, 1}
    assert sup_norm(f) == 2


def test_cfunction_add_requires_matching_carrier():
    f = point_mass(frozenset({0, 1}), 0)
    g = point_mass(frozenset({0}), 0)
    with pytest.raises(CarrierMismatch):
        add(f, g)
    assert add(f, scale(f, -1)).support() == set()
    assert extend(g, frozenset({0, 1})).carrier == f.carrier


def test_cfunction_pullback_moves_carrier():
    theta = PartialBijection({0: 10, 1: 11})
    f = CFunction(frozenset({10, 11}), {10: Angle(0)})
    back = pullback(f, theta)
    assert back.carrier == frozenset({0, 1})
    assert back(0) == 1 and back(1) == 0
    assert f.equals(pullback(back, theta.invert()))


angles = st.builds(lambda p, q: Angle(Fraction(p, q)),
                   st.integers(-24, 24), st.integers(1, 24))


@given(angles, angles, angles)
def test_angles_form_an_abelian_group(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a.conj() == 1
    assert a * Angle(0) == a


@given(angles)
def test_angle_value_is_unit_modulus(a):
    assert abs(abs(a.value) - 1) < 1e-12
    assert a.value.conjugate() == pytest.approx(a.conj().value)


partial_maps = st.dictionaries(st.integers(0, 5), st.integers(0, 5), max_size=6).map(
    lambda d: {k: v for k, v in d.items() if list(d.values()).count(v) == 1})


@given(partial_maps, partial_maps, partial_maps)
def test_partial_bijection_composition_is_associative(f, g, h):
    pf, pg, ph = PartialBijection(f), PartialBijection(g), PartialBijection(h)
    assert compose(compose(pf, pg), ph) == compose(pf, compose(pg, ph))


@given(partial_maps)
def test_partial_bijection_inverse_laws(f):
    p = PartialBijection(f)
    assert compose(compose(p, p.invert()), p) == p
    assert compose(p.invert(), p) == PartialBijection.identity(p.domain)


def test_cfunction_exact_equality_of_angles():
    c = frozenset({0})
    f = CFunction(c, {0: Angle("1/3")})
    g = CFunction(c, {0: complex(Angle("1/3").value)})
    assert f.equals(g, tol=1e-12)
    assert f.equals(CFunction(c, {0: Angle("1/3")}))
    assert not f.equals(CFunction(c, {0: Angle("2/3")}))
