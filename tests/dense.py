"""Circle scalars, functions on carriers and dense operations for the tests.

The reference implementations compute with the types the library used
before it held every exact scalar as a turn and theta and omega as dicts:
Angle, a circle scalar that multiplies by adding turns, and CFunction, a
function on a finite carrier with Angle or complex values (scalar,
cfunctions and omega_dicts convert).  The pointwise operations serve the
references and the unit tests of these types; gauge_functions and
multiplier_functions read exponent arrays as dicts of CFunctions.  Tables
is a bundle's structure tables as dicts of Angle or complex scalars:
tables(B) reads a Bundle's rows into it, Tables.bundle() turns it back
into rows, and its mul and star extend the tables linearly to CFunctions.
The point-mass operations read the dict tables one scaled point mass at a
time, as the former Bundle.verify did.  The semigroup references are
the former loops of fellsem.isg over the table as lists: the frontier
closure of sub_semigroup, and IsgHomomorphism's law with
is_essentially_injective, beside the outcome the library gives.  RefGerms
is the germ groupoid as GermGroupoid built it before its theta half was
compiled with the frame: every array from theta and the n x n x m W anew
for each action.
"""

from fractions import Fraction
from functools import cached_property

import numpy as np

from fellsem.action import NOT_ANGLE, OUTSIDE, ActionError, CarrierMismatch, exponents, gauge_transform, mod
from fellsem.angles import as_frac, turn
from fellsem.bundle import Bundle
from fellsem.groupoid import (FiniteGroupoid, GroupoidError, TwoCocycle, verify_cocycle,
                              verify_groupoid)
from fellsem.isg import (IsgError, IsgHomomorphism, first_true, index_pairs, is_essentially_injective,
                         verify_inverse_semigroup)


class Angle:
    """A unit-modulus scalar exp(2*pi*i * frac) with frac a rational mod 1."""

    __slots__ = ("frac",)

    def __init__(self, frac=0):
        self.frac = frac.frac if isinstance(frac, Angle) else as_frac(frac)

    def __mul__(self, other):
        if isinstance(other, Angle):
            # a factor one costs no Fraction work
            if not other.frac:
                return self
            return Angle(self.frac + other.frac) if self.frac else other
        return self.value * other

    __rmul__ = __mul__

    def conj(self):
        return Angle(-self.frac) if self.frac else self

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

    @property
    def is_one(self) -> bool:
        return self.frac == 0


ONE = Angle(0)
as_angle = Angle  # x as an Angle; x may be an Angle, a Fraction/int, or 'p/q' text


def as_complex(x) -> complex:
    return x.value if isinstance(x, Angle) else complex(x)


def scalar(v):
    """A library value, a turn or a complex number, as an Angle or complex."""
    return v if isinstance(v, complex) else Angle(v)


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


def cfunctions(omega) -> dict:
    """An omega mapping of the library, {(s, t): {x: turn or complex}}, as
    CFunctions of Angles on the keys, as the former omega view read it."""
    return {key: CFunction(w, {x: scalar(v) for x, v in w.items()}) for key, w in omega.items()}


def omega_dicts(omega) -> dict:
    """An omega mapping of CFunctions as the library's constructor takes it:
    a missing value is the complex zero."""
    return {key: {x: w(x).frac if isinstance(w(x), Angle) else complex(w(x)) for x in w.carrier}
            for key, w in omega.items()}


def carrier(A, s: int) -> frozenset:
    """The carrier of the fiber over s of the action A: U(ss*)."""
    return A.U[A.S.mul(s, A.S.inv[s])]


def coord(G, t: int, x) -> Fraction:
    """The turn of the germ coordinate G.K at the pair (t, x) of the germ
    groupoid G; KeyError if (t, x) is no pair."""
    G.germ(t, x)
    return Fraction(int(G.K[t, G.A.frame.index[x]]), G.N)


def scalar_mul(a, b):
    """Product of two circle scalars, exact when both are Angles."""
    if isinstance(a, Angle) and isinstance(b, Angle):
        return a * b
    return as_complex(a) * as_complex(b)


def scalar_conj(a):
    """The conjugate of a circle scalar, exact for an Angle."""
    if isinstance(a, Angle):
        return a.conj()
    return complex(a).conjugate()


def ref_omega_at(A, s: int, t: int, y):
    """omega(s, t)(y) read through the omega view as an Angle or complex,
    as the former TwistedAction.omega_at did: an ActionError where it is
    zero."""
    v = scalar(A.omega[(s, t)].get(y, 0j))
    if v == 0:
        raise ActionError(f"omega({A.S.label(s)},{A.S.label(t)}) undefined at {y}")
    return v


def functions(family, points, carriers) -> dict:
    """A family (N, K) or (N, K, V) of exponent arrays as a dict of
    CFunctions: element s's function on carriers[s] holds, at points[s][i],
    the Angle K[s, i]/N, or V[s, i] where K is NOT_ANGLE, and no value
    where K is OUTSIDE."""
    N, K, V = (*family, None)[:3]
    return {s: CFunction(carriers[s], {points[s][i]: Angle(Fraction(k, N)) if k >= 0
                                       else complex(V[s][i])
                                       for i, k in enumerate(row) if k != OUTSIDE})
            for s, row in enumerate(K.tolist())}


def gauge_functions(A, chi) -> dict:
    """A gauge (N, C) over A's frame as CFunctions on the fiber carriers."""
    return functions(chi, [A.frame.points] * A.S.n, [carrier(A, s) for s in A.S.elements()])


def multiplier_functions(B, u) -> dict:
    """A multiplier family (N, K, V) over B's slots as CFunctions on the
    fibers."""
    return functions(u, B.points, [B.carrier(s) for s in B.S.elements()])


def compose(f: dict, g: dict) -> dict:
    """The partial bijection f after g, on the maximal domain."""
    return {x: f[y] for x, y in g.items() if y in f}


def restrict(f: dict, subset) -> dict:
    return {x: y for x, y in f.items() if x in subset}


def invert(f: dict) -> dict:
    return {y: x for x, y in f.items()}


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


def pullback(f: CFunction, theta: dict) -> CFunction:
    """The function x -> f(theta(x)) on theta^{-1}(carrier)."""
    back = {x for x, y in theta.items() if y in f.carrier}
    return CFunction(back, {x: f.values[theta[x]] for x in back if theta[x] in f.values})


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


def ordered(B, s: int) -> list:
    """The points of fiber s in the order B numbers them."""
    points = getattr(B, "points", None)
    if isinstance(points, dict):  # a Tables' order, which may leave fibers out
        return list(points[s]) if s in points else list(B.carrier(s))
    return list(points[s])


def random_element(B, s: int, rng) -> CFunction:
    return CFunction(B.carrier(s), {x: complex(rng.gauss(0, 1), rng.gauss(0, 1))
                                    for x in ordered(B, s)})


# ---------------------------------------------------------------------------
# dict tables

def _smul(*factors):
    """Product of scalars, exact while every factor is an Angle; zero wins."""
    acc = ONE
    for f in factors:
        if f == 0:
            return 0
        if isinstance(acc, Angle) and isinstance(f, Angle):
            acc = acc * f
        else:
            acc = as_complex(acc) * as_complex(f)
    return acc


class Tables:
    """carriers[s]        the point set of the fiber over s;
    products[(s, t)]   (x, y) -> (z, c): delta_x in fiber s times delta_y in
                       fiber t is c delta_z in fiber st;
    stars[s]           x -> (z, c): the adjoint of delta_x in fiber s is
                       c delta_z in fiber s*;
    inclusions[(s, t)] for s <= t, x -> c: delta_x in fiber s is c delta_x
                       in fiber t.
    `points` orders each fiber's points for bundle(); the keyword
    arguments are the Bundle's origin attributes."""

    def __init__(self, S, carriers, products, stars, inclusions, realization,
                 points=None, **origin):
        self.S, self.carriers, self.products = S, carriers, products
        self.stars, self.inclusions, self.realization = stars, inclusions, realization
        self.points, self.origin = points or {}, origin
        vars(self).update(origin)

    def carrier(self, s):
        return self.carriers[s]

    def mul(self, s, t, f, g):
        vals = {}
        for (x, y), (z, c) in self.products[(s, t)].items():
            v = _smul(f(x), g(y), c)
            if v != 0:  # the first term at z as it is, a sum as complex
                vals[z] = as_complex(vals[z]) + as_complex(v) if z in vals else v
        return CFunction(self.carriers[self.S.mul(s, t)], vals)

    def star(self, s, f):
        vals = {}
        for x, (z, c) in self.stars[s].items():
            v = _smul(scalar_conj(f(x)), c)
            if v != 0:
                vals[z] = as_complex(vals[z]) + as_complex(v) if z in vals else v
        return CFunction(self.carriers[self.S.inv[s]], vals)

    def bundle(self) -> Bundle:
        """The Bundle of these tables: each fiber's points in the order of
        `points` where it lists them, new points after them by repr; an
        entry naming a point outside its fiber gets the number -1."""
        S, n = self.S, self.S.n
        pts = []
        for s in S.elements():
            known = [x for x in self.points.get(s, ()) if x in self.carriers[s]]
            pts.append(known + sorted(self.carriers[s] - set(known), key=repr))
        loc = [{x: i for i, x in enumerate(p)} for p in pts]
        rows, scalars = ([], [], []), []
        for (s, t), entries in self.products.items():
            for (x, y), (z, c) in entries.items():
                rows[0].append((s * n + t, loc[s].get(x, -1), loc[t].get(y, -1),
                                loc[S.mul(s, t)].get(z, -1)))
                scalars.append(c)
        for s, entries in self.stars.items():
            for x, (z, c) in entries.items():
                rows[1].append((s, loc[s].get(x, -1), loc[S.inv[s]].get(z, -1)))
                scalars.append(c)
        for (s, t), entries in self.inclusions.items():
            for x, c in entries.items():
                rows[2].append((s * n + t, loc[s].get(x, -1), loc[t].get(x, -1)))
                scalars.append(c)
        N, K = exponents([c.frac if isinstance(c, Angle) else None for c in scalars])
        V = np.array([complex(c) for c in scalars], dtype=complex)
        tables, at = [], 0
        for width, r in zip((4, 3, 3), rows):
            cols = np.array(r, dtype=np.intp).reshape(-1, width).T
            tables.append((*cols, K[at:at + len(r)], V[at:at + len(r)]))
            at += len(r)
        return Bundle(S, pts, N, *tables, self.realization, **self.origin)


def tables(B) -> Tables:
    """B's rows as dict tables, with Angle scalars where B has exponents."""
    if B.fiber_violations():
        raise ValueError("a row outside its fiber names no point")
    S, n, pts, N = B.S, B.S.n, B.points, B.N

    def scalar(K, V, i):
        return Angle(Fraction(int(K[i]), N)) if K[i] != NOT_ANGLE else complex(V[i])

    products = {(s, t): {} for s in S.elements() for t in S.elements()}
    pair, x, y, z, K, V = B.products
    for i, (p, a, b, c) in enumerate(zip(pair.tolist(), x.tolist(), y.tolist(), z.tolist())):
        s, t = divmod(p, n)
        products[(s, t)][(pts[s][a], pts[t][b])] = (pts[S.mul(s, t)][c], scalar(K, V, i))
    stars = {s: {} for s in S.elements()}
    fiber, x, z, K, V = B.stars
    for i, (s, a, c) in enumerate(zip(fiber.tolist(), x.tolist(), z.tolist())):
        stars[s][pts[s][a]] = (pts[S.inv[s]][c], scalar(K, V, i))
    inclusions = {(s, t): {} for s in S.elements() for t in S.elements() if S.leq(s, t)}
    pair, x, _, K, V = B.inclusions
    for i, (p, a) in enumerate(zip(pair.tolist(), x.tolist())):
        s, t = divmod(p, n)
        inclusions[(s, t)][pts[s][a]] = scalar(K, V, i)
    return Tables(S, {s: B.carrier(s) for s in S.elements()}, products, stars, inclusions,
                  B.realization, points=dict(enumerate(pts)), **origin(B))


def origin(B) -> dict:
    """The data a Bundle's rows were built from, as its builder passed them."""
    return {k: v for k, v in vars(B).items() if k in ("A", "G", "tau", "base", "phi")}


# ---------------------------------------------------------------------------
# scaled point masses: a pair (z, c) with c non-zero, or None for zero

def scaled(z, *factors):
    """The point mass at z scaled by the product of factors; None if zero."""
    c = _smul(*factors)
    return (z, c) if c != 0 else None


def far(p, q, tol: float) -> bool:
    """Whether two scaled point masses differ at some point: two Angles by
    any turn, and otherwise by more than tol."""
    if p and q and p[0] == q[0]:
        if isinstance(p[1], Angle) and isinstance(q[1], Angle):
            return p[1] != q[1]
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


# ---------------------------------------------------------------------------
# the semigroup layer as loops over the table

def ref_sub_semigroup(S, generators):
    """Closure of generator indices under product and involution, a
    frontier walked pair by pair; the subsemigroup and its indices in S."""
    closed = set(generators)
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            b = S.inv[a]
            if b not in closed:
                closed.add(b)
                nxt.append(b)
        for a in list(closed):
            for b in list(closed):
                c = S.table[a][b]
                if c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    order = sorted(closed)
    pos = {a: i for i, a in enumerate(order)}
    table = [[pos[S.table[a][b]] for b in order] for a in order]
    labels = [S.labels[a] for a in order]
    return verify_inverse_semigroup(table, labels=labels), order


def ref_homomorphism_outcome(source, target, map_):
    """What IsgHomomorphism and is_essentially_injective make of map_:
    (message, None) for the row-major first (a, b) with map(ab) != map(a)
    map(b), else (None, whether map(t) idempotent implies t idempotent)."""
    for a in source.elements():
        for b in source.elements():
            if map_[source.mul(a, b)] != target.mul(map_[a], map_[b]):
                return f"not a homomorphism at ({a}, {b})", None
    return None, all(source.is_idempotent(t) or not target.is_idempotent(map_[t])
                     for t in source.elements())


def homomorphism_outcome(source, target, map_):
    """The same outcome from fellsem.isg."""
    try:
        return None, is_essentially_injective(IsgHomomorphism(source, target, map_))
    except IsgError as e:
        return str(e), None


# ---------------------------------------------------------------------------
# the germ groupoid built anew for each action

class RefGerms:
    """of, K, reps, src_i, rng_i and conflicts when made, table, twist and
    pair when first read, and verify, as GermGroupoid has them."""

    def __init__(self, A):
        F, W, N = A.frame, A.W, A.N
        T, ar, E = F.T, np.arange(F.n), F.idem
        below = F.leq[E[:, None], E]
        lower = ~(~below[:, :, None] & F.U[E][None]).any(axis=1)
        ex = E[np.where(lower, below.sum(axis=0)[:, None], -1).argmax(axis=0)]
        dom = F.U[T[F.inv, ar]]
        t, x = index_pairs(dom)
        m = T[t, ex[x]]
        _, first, cls = np.unique(m * F.m + x, return_index=True, return_inverse=True)
        g = np.argsort(np.argsort(first))[cls.reshape(-1)]
        by_germ = np.lexsort((T[t, t] != t, g))
        rep = by_germ[np.unique(g[by_germ], return_index=True)[1]]
        self.A, self.N, self.reps, self.src_i = A, N, t[rep], x[rep]
        self.rng_i = F.th[self.reps, self.src_i]
        self.arrow_count = len(self.reps)
        self.of = np.full((F.n, F.m), -1, dtype=np.intp)
        self.of[t, x] = g
        lo, hi = index_pairs(F.leq & (ar[:, None] != ar))
        i, xe = index_pairs(dom[lo] & dom[hi])
        s, u = lo[i], hi[i]
        e, y = T[F.inv[s], s], F.th[s, xe]
        k = W[u, e, y]
        if (k < 0).any():
            j = first_true(k < 0)[0]
            raise F.bad_value(u[j], e[j], F.points[y[j]], "is not an angle")
        mm, y, r = T[F.inv[m], m], F.th[m, x], self.reps[g]
        self.K = np.zeros((F.n, F.m), dtype=W.dtype)
        self.K[t, x] = mod(np.where(t == m, 0, W[t, mm, y]) - np.where(r == m, 0, W[r, mm, y]), N)
        bad = mod(self.K[s, xe] + k - self.K[u, xe], N) != 0
        self.conflicts = [("transition", (s, t, F.points[x])) for s, t, x in
                          zip(s[bad].tolist(), u[bad].tolist(), xe[bad].tolist())]

    @cached_property
    def table(self):
        r, F = self.reps, self.A.frame
        return np.where(self.rng_i == self.src_i[:, None], self.of[F.T[r[:, None], r], self.src_i], -1)

    @cached_property
    def twist(self):
        A, r, x = self.A, self.reps, self.src_i
        g, h = np.nonzero(self.table >= 0)
        rt = A.frame.T[r[g], r[h]]
        y = A.frame.th[rt, x[h]]
        if ((w := A.W[r[g], r[h], y]) < 0).any():
            i = first_true(w < 0)[0]
            raise A.frame.bad_value(r[g[i]], r[h[i]], A.frame.points[y[i]], "is not an angle")
        return g, h, mod(w + self.K[rt, x[h]], self.N)

    @cached_property
    def pair(self):
        points, (g, h, E) = self.A.frame.points, self.twist
        G = FiniteGroupoid(points, *([points[i] for i in e.tolist()] for e in (self.src_i, self.rng_i)),
                           zip(zip(g.tolist(), h.tolist()), self.table[g, h].tolist()))
        K = np.full(len(G.pair_a), OUTSIDE, dtype=E.dtype)
        K[G.pair_index[g, h]] = E
        return G, TwoCocycle.from_exponents(G, self.N, K)

    def verify(self):
        G, tau = self.pair
        try:
            bad = verify_cocycle(verify_groupoid(G), tau)[1]
        except GroupoidError as exc:
            bad = [("groupoid", str(exc))]
        bad += self.conflicts
        return not bad, bad


def ref_siebenize(A):
    """siebenize's gauge from RefGerms' coordinates, and its transform."""
    G, F = RefGerms(A), A.frame
    t, x = index_pairs(G.of >= 0)
    C = np.full((F.n, F.m), OUTSIDE, dtype=G.K.dtype)
    C[t, F.th[t, x]] = mod(-G.K[t, x], A.N)
    return (A.N, C), gauge_transform(A, (A.N, C))
