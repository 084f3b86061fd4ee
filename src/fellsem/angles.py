"""Exact arithmetic on the unit circle.

An Angle stores a reduced rational p/q and represents exp(2*pi*i*p/q).
Products and conjugates of angles stay exact; mixing an Angle with an
ordinary complex number falls back to floating point.
"""

from __future__ import annotations

import cmath
from fractions import Fraction


def turn(k: int, N: int) -> complex:
    """exp(2 pi i k/N) for 0 <= k < N, exact at the quarter turns; k/N is
    the float of the fraction, so the value depends on k/N alone."""
    if 4 * k % N == 0:
        return (1 + 0j, 1j, -1 + 0j, -1j)[4 * k // N]
    return cmath.exp(2j * cmath.pi * (k / N))


def as_frac(x) -> Fraction:
    """x as a fraction in [0, 1), the turns of an Angle; x may be an Angle,
    a Fraction/int, or 'p/q' text."""
    if isinstance(x, Angle):
        return x.frac
    f = x if type(x) is Fraction else Fraction(x)
    return f if 0 <= f.numerator < f.denominator else f - (f // 1)


class Angle:
    """A unit-modulus scalar exp(2*pi*i * frac) with frac a rational mod 1."""

    __slots__ = ("frac",)

    def __init__(self, frac=0):
        self.frac = as_frac(frac)

    @classmethod
    def parse(cls, text: str) -> "Angle":
        return cls(Fraction(text))

    def __mul__(self, other):
        if isinstance(other, Angle):
            # a factor one costs no Fraction work
            if not other.frac:
                return self
            return Angle(self.frac + other.frac) if self.frac else other
        return self.value * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Angle):
            return Angle(self.frac - other.frac)
        return self.value / other

    def __pow__(self, n: int):
        return Angle(self.frac * n)

    def conj(self):
        return Angle(-self.frac) if self.frac else self

    conjugate = conj

    @property
    def value(self) -> complex:
        return turn(self.frac.numerator, self.frac.denominator)

    def __complex__(self):
        return self.value

    def __eq__(self, other):
        if isinstance(other, Angle):
            return self.frac == other.frac
        if other == 1:
            return self.frac == 0
        if other == -1:
            return 2 * self.frac == 1
        return NotImplemented

    def __hash__(self):
        return hash(("Angle", self.frac))

    def __repr__(self):
        return f"Angle({self.frac})"

    def __str__(self):
        return str(self.frac)

    @property
    def is_one(self) -> bool:
        return self.frac == 0


ONE = Angle(0)


def as_angle(x) -> Angle:
    """Coerce x to an Angle; x may be an Angle, a Fraction/int, or 'p/q' text."""
    if isinstance(x, Angle):
        return x
    if isinstance(x, str):
        return Angle.parse(x)
    return Angle(x)


def as_complex(x) -> complex:
    return x.value if isinstance(x, Angle) else complex(x)
