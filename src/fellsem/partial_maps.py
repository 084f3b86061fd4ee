"""Partial bijections of a finite point set and circle-weighted functions.

Functions on finite carriers stand in for elements of commutative
C*-algebras; partial bijections stand in for *-isomorphisms between
ideals (a function is moved by pulling back along the inverse map).
"""

from __future__ import annotations

from fellsem.angles import ONE, Angle, as_complex


class CarrierMismatch(ValueError):
    pass


class PartialBijection:
    """An injective map from a subset of points to points."""

    __slots__ = ("map",)

    def __init__(self, mapping):
        m = dict(mapping)
        if len(set(m.values())) != len(m):
            raise ValueError("mapping is not injective")
        self.map = m

    @property
    def domain(self):
        return frozenset(self.map)

    @property
    def range(self):
        return frozenset(self.map.values())

    def __call__(self, x):
        return self.map[x]

    def __contains__(self, x):
        return x in self.map

    def invert(self) -> "PartialBijection":
        return PartialBijection({y: x for x, y in self.map.items()})

    def union_compatible(self, other: "PartialBijection") -> bool:
        """True iff the union of the two graphs is again a partial bijection."""
        merged = dict(self.map)
        for x, y in other.map.items():
            if merged.setdefault(x, y) != y:
                return False
        return len(set(merged.values())) == len(merged)

    def union(self, other: "PartialBijection") -> "PartialBijection":
        if not self.union_compatible(other):
            raise ValueError("graphs do not merge to a partial bijection")
        return PartialBijection({**self.map, **other.map})

    def __eq__(self, other):
        return isinstance(other, PartialBijection) and self.map == other.map

    def __hash__(self):
        return hash(frozenset(self.map.items()))

    def __repr__(self):
        pairs = ", ".join(f"{x}>{y}" for x, y in sorted(self.map.items()))
        return "PartialBijection({" + pairs + "})"

    @classmethod
    def identity(cls, subset) -> "PartialBijection":
        return cls({x: x for x in subset})

    @classmethod
    def empty(cls) -> "PartialBijection":
        return cls({})


class CFunction:
    """A function on a finite carrier; values may be Angles or complex.

    The carrier is a bookkeeping set, not the exact support: stored values
    may be zero.  Points outside the carrier are implicitly zero.
    """

    __slots__ = ("carrier", "values")

    def __init__(self, carrier, values=None):
        self.carrier = frozenset(carrier)
        vals = dict(values or {})
        for x in vals:
            if x not in self.carrier:
                raise CarrierMismatch(f"value at {x} outside carrier")
        self.values = vals

    @classmethod
    def one(cls, carrier) -> "CFunction":
        return cls(carrier, dict.fromkeys(carrier, ONE))

    def __call__(self, x):
        if x in self.values:
            return self.values[x]
        return 0

    def at(self, x) -> complex:
        return as_complex(self(x))

    def support(self):
        return frozenset(x for x, v in self.values.items() if as_complex(v) != 0)

    def equals(self, other: "CFunction", tol=0.0) -> bool:
        if self.carrier != other.carrier:
            return False
        for x in self.carrier:
            a, b = self(x), other(x)
            if isinstance(a, Angle) and isinstance(b, Angle):
                if a != b:
                    return False
            elif abs(self.at(x) - other.at(x)) > tol:
                return False
        return True

    def __repr__(self):
        vals = ", ".join(f"{x}: {v}" for x, v in sorted(self.values.items(), key=lambda p: str(p[0])))
        return "CFunction({" + vals + "})"
