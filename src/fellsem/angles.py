"""Exact scalars on the unit circle, held as turns.

The exact scalar exp(2 pi i f) is its turn f, a Fraction in [0, 1); arrays
hold turns as exponents k mod a common denominator N, and turn(k, N) is
the complex value of one.
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
    """x as a turn, a Fraction in [0, 1); x may be a Fraction, an int or
    'p/q' text."""
    f = x if type(x) is Fraction else Fraction(x)
    return f if 0 <= f.numerator < f.denominator else f - (f // 1)


# Angle was a class wrapping a turn.  Code written against it, such as the
# values it passes to TwoCocycle.coboundary, now gets the turn itself.
Angle = as_frac
