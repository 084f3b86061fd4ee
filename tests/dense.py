"""Dense operations on CFunctions and partial bijections for the tests.

The checker compares scaled point masses and batched arrays; these
pointwise operations serve the reference implementations and the unit
tests of the scalar and function types.  The point-mass operations at the
end read a Bundle's dict tables one scaled point mass at a time, as the
former Bundle.verify did.
"""

from fellsem.angles import ONE, Angle, as_complex, scalar_conj
from fellsem.bundle import _smul
from fellsem.partial_maps import CarrierMismatch, CFunction, PartialBijection


def scalar_mul(a, b):
    """Product of two circle scalars, exact when both are Angles."""
    if isinstance(a, Angle) and isinstance(b, Angle):
        return a * b
    return as_complex(a) * as_complex(b)


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


def conjugate(f: CFunction) -> CFunction:
    return CFunction(f.carrier, {x: scalar_conj(v) for x, v in f.values.items()})


def extend(f: CFunction, carrier) -> CFunction:
    """Zero-extend to a larger carrier."""
    c = frozenset(carrier)
    if not f.carrier <= c:
        raise CarrierMismatch("extend target does not contain carrier")
    return CFunction(c, dict(f.values))


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


# ---------------------------------------------------------------------------
# scaled point masses: a pair (z, c) with c non-zero, or None for zero

def scaled(z, *factors):
    """The point mass at z scaled by the product of factors; None if zero."""
    c = _smul(*factors)
    return (z, c) if c != 0 else None


def far(p, q, tol: float) -> bool:
    """Whether two scaled point masses differ by more than tol at some
    point."""
    if p and q and p[0] == q[0]:
        return p[1] != q[1] and abs(as_complex(p[1]) - as_complex(q[1])) > tol
    return any(m is not None and abs(as_complex(m[1])) > tol for m in (p, q))


def mul_point(B, s: int, t: int, p, q):
    hit = p and q and B.products[(s, t)].get((p[0], q[0]))
    return hit and scaled(hit[0], p[1], q[1], hit[1])


def star_point(B, s: int, p):
    hit = p and B.stars[s].get(p[0])
    return hit and scaled(hit[0], scalar_conj(p[1]), hit[1])


def include_point(B, t: int, s: int, p):
    """j(t, s) of a scaled point mass in fiber s, for s <= t."""
    scalars = B.inclusions[(s, t)]
    return scaled(p[0], p[1], scalars[p[0]]) if p and p[0] in scalars else None
