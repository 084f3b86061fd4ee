"""Dense operations on CFunctions and partial bijections for the tests.

The checker compares scaled point masses and batched arrays; these
pointwise operations serve the reference implementations and the unit
tests of the scalar and function types.
"""

from fellsem.angles import ONE, scalar_mul
from fellsem.partial_maps import CarrierMismatch, CFunction, PartialBijection


def compose(f: PartialBijection, g: PartialBijection) -> PartialBijection:
    """f after g, on the maximal domain."""
    return PartialBijection({x: f.map[y] for x, y in g.map.items() if y in f.map})


def restrict(f: PartialBijection, subset) -> PartialBijection:
    return PartialBijection({x: y for x, y in f.map.items() if x in subset})


def point_mass(carrier, x, value=None) -> CFunction:
    if x not in frozenset(carrier):
        raise CarrierMismatch(f"point {x} outside carrier")
    return CFunction(carrier, {x: ONE if value is None else value})


def multiply(f: CFunction, g: CFunction) -> CFunction:
    carrier = f.carrier & g.carrier
    vals = {}
    for x in carrier:
        if x in f.values and x in g.values:
            vals[x] = scalar_mul(f.values[x], g.values[x])
    return CFunction(carrier, vals)


def pullback(f: CFunction, theta: PartialBijection) -> CFunction:
    """The function x -> f(theta(x)) on theta^{-1}(carrier)."""
    carrier = {x for x, y in theta.map.items() if y in f.carrier}
    vals = {x: f.values[theta(x)] for x in carrier if theta(x) in f.values}
    return CFunction(carrier, vals)


def scale(f: CFunction, scalar) -> CFunction:
    return CFunction(f.carrier, {x: scalar_mul(scalar, v) for x, v in f.values.items()})


def add(f: CFunction, g: CFunction) -> CFunction:
    if f.carrier != g.carrier:
        raise CarrierMismatch("add requires equal carriers")
    vals = {}
    for x in f.carrier:
        v = f.at(x) + g.at(x)
        if v != 0:
            vals[x] = v
    return CFunction(f.carrier, vals)


def sup_norm(f: CFunction) -> float:
    return max((abs(f.at(x)) for x in f.values), default=0.0)


def random_element(B, s: int, rng) -> CFunction:
    c = B.carrier(s)
    return CFunction(c, {x: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in c})
