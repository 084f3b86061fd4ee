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
for each action.  RefRows, RefLookup and the ref_ bundle readers are the
bundle checks as they read the rows before the rows' geometry was
compiled: every geometry array, lookup and family gathered anew for each
bundle.
"""

from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from fellsem.action import (CHUNK, NOT_ANGLE, OUTSIDE, ActionError, CarrierMismatch, Frame, TwistedAction,
                            _exponent_dtype, exponents, gauge_transform, held, mod, omega_differs, turns, widen)
from fellsem.angles import as_frac, turn
from fellsem.bundle import (NOWHERE, Bundle, BundleError, NotSaturated, NotSemiAbelian, _placed, _starts,
                            check_multiplier_family)
from fellsem.groupoid import (FiniteGroupoid, GroupoidError, TwoCocycle, verify_cocycle,
                              verify_groupoid)
from fellsem.isg import (IsgError, IsgHomomorphism, first_true, generating_set, index_pairs,
                         is_essentially_injective, verify_inverse_semigroup)


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


# ---------------------------------------------------------------------------
# the bundle checks as they read the rows before the rows' geometry was
# compiled: every geometry array, lookup and family gathered anew for each
# bundle (the oracle of the compiled checks)

class RefRows:
    """A bundle's rows, S, N and points, with the geometry the checks read
    computed from them on first use."""

    def __init__(self, B):
        self.S, self.N, self.points, self.realization = B.S, B.N, B.points, B.realization
        self.products, self.stars, self.inclusions = B.products, B.stars, B.inclusions
        self.angles = all(t[-1] is None for t in (B.products, B.stars, B.inclusions))
        self.T, self.leq = B.S.cayley, B.S.order
        self._lookups = {}

    def carrier(self, s: int) -> frozenset:
        return frozenset(self.points[s])

    # -- the geometry, computed on first use

    @cached_property
    def cs(self) -> np.ndarray:
        """The number of points of each fiber."""
        return np.array([len(p) for p in self.points], dtype=np.intp).reshape(self.S.n)

    off = cached_property(lambda self: _starts(self.cs))
    M = cached_property(lambda self: sum(map(len, self.points)))
    W = cached_property(lambda self: max([1, *map(len, self.points)]))  # the widest fiber
    slot_s = cached_property(lambda self: np.repeat(np.arange(self.S.n), self.cs))
    slot_x = cached_property(lambda self: np.arange(self.M) - self.off[self.slot_s])
    inv = cached_property(lambda self: np.array(self.S.inv, dtype=np.intp).reshape(self.S.n))

    @cached_property
    def spans(self) -> tuple:
        """Per table, each key's first row and count of rows."""
        n = self.S.n
        return tuple((_starts(c), c) for c in (
            np.bincount(rows[0], minlength=k) for rows, k in
            zip((self.products, self.stars, self.inclusions), (n * n, n, n * n))))

    @cached_property
    def values(self) -> tuple:
        """The complex value of every product, star and inclusion row."""
        return tuple(turns(rows[-2], self.N, rows[-1])
                     for rows in (self.products, self.stars, self.inclusions))

    @cached_property
    def pairs(self):
        """Every pair of points x of fiber s and y of fiber t, as flat
        arrays s, t, x, y in that order; pair k is product lookup k."""
        n, cs = self.S.n, self.cs
        sizes = np.outer(cs, cs).ravel()
        key = np.repeat(np.arange(n * n), sizes)
        k = np.arange(len(key)) - _starts(sizes)[key]
        s, t = key // n, key % n
        return s, t, k // cs[t], k % cs[t]

    @cached_property
    def below(self):
        """Every s <= t with a point x of fiber s, as flat arrays s, t, x
        in that order."""
        lo, hi = np.nonzero(self.leq)
        e = np.repeat(np.arange(len(lo)), self.cs[lo])
        return lo[e], hi[e], np.arange(len(e)) - _starts(self.cs[lo])[e]

    def lookup(self, N: int | None = None, exact: bool | None = None) -> "RefLookup":
        """The rows as lookups with exponents mod N (a multiple of self.N,
        the default), without complex values if `exact` (default: angles)."""
        key = (N or self.N, self.angles if exact is None else exact)
        if key not in self._lookups:
            self._lookups[key] = RefLookup(self, *key)
        return self._lookups[key]

    def fiber_violations(self) -> list:
        """Rows that leave their fibers or repeat another row's key (s, t,
        x, y), (s, x) or (s, t, x): product rows of (s, t) and star rows of
        s, row by row of the semigroup, then inclusion rows."""
        n, lab, cs, T, W = self.S.n, self.S.label, self.cs, self.T.ravel(), self.W

        def bad(first, rest, width, *points):
            """First columns of rows with a point (x, fiber) outside or a repeated key."""
            out = np.any([(x < 0) | (x >= cs[fiber]) for x, fiber in points], axis=0)
            key = np.sort((first * width + rest)[~out])
            return np.concatenate([first[out], key[1:][key[1:] == key[:-1]] // width])

        pair, x, y, z = self.products[:4]
        p = bad(pair, x * W + y, W * W, (x, pair // n), (y, pair % n), (z, T[pair]))
        grid = np.zeros(n * (n + 1), dtype=bool)  # (s, t) at s (n + 1) + t, then s's stars
        grid[p + p // n] = True
        fiber, x, z = self.stars[:3]
        grid[bad(fiber, x, W, (x, fiber), (z, self.inv[fiber])) * (n + 1) + n] = True
        out = [("star-fiber", lab(s)) if t == n else ("product-fiber", (lab(s), lab(t)))
               for s, t in (divmod(k, n + 1) for k in np.flatnonzero(grid))]
        pair, x, z = self.inclusions[:3]
        for p in np.unique(bad(pair, x, W, (x, pair // n), (z, pair % n))):
            out.append(("inclusion-fiber", (lab(p // n), lab(p % n))))
        return out


def _expand(start, count, keys):
    """For each key in turn, the rows start[key] .. start[key] + count[key]:
    the position of the key and the row, one pair per row."""
    n = count[keys]
    b = np.repeat(np.arange(len(keys)), n)
    return b, np.repeat(start[keys] - _starts(n), n) + np.arange(len(b))


class RefLookup:
    """A bundle's rows as lookups from keys to scaled point masses (z, K, V),
    exponents mod N, with one last entry for zero: products by (s, t, x, y)
    at poff[s, t] + x c_t + y, stars by slot, and j(t, s) by ioff[s, t] + x.
    z is a point's number in its fiber or NOWHERE for zero; V is None if
    `exact`.  The exact families gather through the lookups over B.pairs and
    B.below; the rows must lie in their fibers.
    """

    def __init__(self, B: Bundle, N: int, exact: bool):
        self.B, self.N, self.exact = B, N, exact
        n, cs, M = B.S.n, B.cs, B.M
        sizes = np.outer(cs, cs).ravel()
        self.poff = _starts(sizes).reshape(n, n)
        self.ioff = _starts(np.repeat(cs, n)).reshape(n, n)
        (pair, x, y, z, K, _), (fiber, sx, sz, sK, _) = B.products, B.stars
        (ipair, ix, iz, iK, _), (V, sV, iV) = B.inclusions, B.values
        self.P = self._lookup(int(sizes.sum()), self.poff.ravel()[pair] + x * cs[pair % n] + y,
                              z, K, V)
        self.St = self._lookup(M, B.off[fiber] + sx, sz, sK, sV)
        self.J = self._lookup(n * M, self.ioff.ravel()[ipair] + ix, iz, iK, iV)

    def _lookup(self, size, at, z, K, V):
        Z = np.full(size + 1, NOWHERE, dtype=np.intp)
        Z[at] = np.where(V != 0, z, NOWHERE)
        KK = np.full(size + 1, NOT_ANGLE, dtype=_exponent_dtype(self.N))
        KK[at] = widen(K, self.B.N, self.N)
        if self.exact:
            return Z, KK, None
        VV = np.zeros(size + 1, dtype=complex)
        VV[at] = V
        return Z, KK, VV

    @staticmethod
    def _take(table, at):
        """The entries at the keys `at`; a key past the table (a key made
        from NOWHERE) reads the zero entry."""
        return tuple(a if a is None else a.take(at, mode="clip") for a in table)

    def product(self, s, t, x, y):
        """delta_x in fiber s times delta_y in fiber t."""
        return self._take(self.P, self.poff[s, t] + x * self.B.cs[t] + y)

    def star(self, s, x):
        """The adjoint of delta_x in fiber s."""
        return self._take(self.St, self.B.off[s] + x)

    def include(self, s, t, x):
        """j(t, s) of delta_x in fiber s."""
        return self._take(self.J, self.ioff[s, t] + x)

    def unit(self, x):
        """The point masses delta_x, unscaled."""
        return x, 0, None if self.exact else 1.0

    def scaled(self, z, *factors):
        """The point masses at z scaled by the product of the factors, each
        a (K, V) pair.  Exponents are reduced mod N only when compared, so
        a sum here has at most three terms, and a comparison (far) of two
        of them at most five: one positive and four negative in the star
        laws, where conj negates.  The exponents' width holds each (see the
        width table in fellsem.action): int8 while N <= 2**5, int16 while
        N <= 2**13, int32 while N <= 2**29, int64 while N <= 2**61, and
        Python integers beyond."""
        K, V = factors[0]
        for k, v in factors[1:]:
            if V is None:
                K = K + k
            else:
                K = np.where((K >= 0) & (k >= 0), K + k, NOT_ANGLE)
                V = V * v
        return z, K, V

    def conj(self, K, V):
        if V is None:
            return -K, None
        return np.where(K >= 0, mod(-K, self.N), K), np.conj(V)

    def far(self, p, q, tol):
        """Whether two scaled point masses differ by more than tol at some
        point: at one point unless their scalars agree within tol, two
        angles unless their exponents agree; at two points unless neither
        scalar exceeds tol."""
        (zp, Kp, Vp), (zq, Kq, Vq) = p, q
        at_p, at_q, one = zp != NOWHERE, zq != NOWHERE, 1.0 > tol
        if self.exact:
            differ, big_p, big_q = mod(Kp - Kq, self.N) != 0, at_p & one, at_q & one
        else:
            big_p = at_p & np.where(Kp >= 0, one, np.abs(Vp) > tol)
            big_q = at_q & np.where(Kq >= 0, one, np.abs(Vq) > tol)
            differ = np.where((Kp >= 0) & (Kq >= 0), mod(Kp - Kq, self.N) != 0,
                              np.abs(Vp - Vq) > tol)
        return np.where(zp == zq, at_p & differ, big_p | big_q)

    # -- the exact families, on point masses

    def exact_violations(self, tol) -> list:
        """Associativity, then involutivity and anti-multiplicativity of the
        star, then the inclusion families."""
        return self._associativity(tol) + self._star_laws(tol) + self._inclusion_laws(tol)

    @cached_property
    def middle(self) -> np.ndarray:
        """The slots whose point masses are the middle factors of Light's
        test (see _associativity): every slot when the full scan is one
        chunk, or when a product scalar is not an angle and so is compared
        within tol; else generating_set over the slots, walking the slots
        of the fibers of S's generators and then every slot, a product
        reaching a slot only with an angle scalar."""
        B = self.B
        Z, K, _ = self.P
        if B.M ** 3 <= CHUNK or not self.exact and (K[Z != NOWHERE] < 0).any():
            return np.arange(B.M)
        T, ps, px, cs, off = B.T, B.slot_s, B.slot_x, B.cs, B.off

        def product(a, g):
            s, t = ps[a][:, None], ps[g][None, :]
            at = self.poff[s, t] + px[a][:, None] * cs[t] + px[g][None, :]
            return np.where((Z[at] != NOWHERE) & (K[at] >= 0), off[T[s, t]] + Z[at], -1)

        order = np.concatenate([np.flatnonzero(np.isin(ps, B.S.generators)), np.arange(B.M)])
        return generating_set(product, order, B.M)

    def _associativity(self, tol) -> list:
        """(delta_x delta_y) delta_z = delta_x (delta_y delta_z) for every
        x, y, z in fibers r, s, t, by Light's test on point masses.

        The lookups extend to a bilinear product on the sum of the fibers.
        A middle factor m passes when (a m) c = a (m c) for all point masses
        a and c, and so for all elements; the m that pass are a subspace
        closed under products, by the four steps in fellsem.isg.  Hence if
        the point masses of self.middle pass, so does every point mass that
        their products reach, and `middle` reaches every slot: a product
        delta_x delta_y = e(K) delta_z with an angle scalar gives delta_z =
        e(-K) delta_x delta_y, and a slot that no such product reaches is a
        middle factor itself.  This needs the rows in their fibers, and
        comparisons that are exact: each product a point mass times a unit
        e(K), compared by exponents, which holds when every product scalar
        is an angle (a tolerance is not transitive).  When the middle
        factors fail, the full scan lists every failure."""
        B = self.B
        q = self.nonassociative(tol, self.middle)
        if q.size and len(self.middle) < B.M:
            q = self.nonassociative(tol, np.arange(B.M))
        ps, px = B.slot_s, B.slot_x
        q = q[:, np.lexsort((px[q[2]], px[q[1]], px[q[0]], ps[q[2]], ps[q[1]], ps[q[0]]))]
        lab, pts = B.S.label, B.points
        return [("associativity", (lab(r), lab(s), lab(t), pts[r][x], pts[s][y], pts[t][z]))
                for r, s, t, x, y, z in zip(*ps[q], *px[q])]

    def nonassociative(self, tol, middle) -> np.ndarray:
        """The slots (a, b, c), b in `middle`, of the point masses x, y and
        z for which (delta_x delta_y) delta_z and delta_x (delta_y delta_z)
        differ, as a 3 x count array; chunked over the slots a."""
        B = self.B
        M, T, ps, px = B.M, B.T, B.slot_s, B.slot_x
        s, y = ps[middle, None], px[middle, None]
        t, z = ps[None, :], px[None, :]
        st = T[s, t]
        yz = self.product(s, t, y, z)
        found = [np.empty((3, 0), dtype=np.intp)]
        step = max(1, CHUNK // max(1, len(middle) * M))
        for a in range(0, M, step):
            r, x = ps[a:a + step, None, None], px[a:a + step, None, None]
            xy = self.product(r, s, x, y)
            left = self.product(T[r, s], t, xy[0], z)
            right = self.product(r, st, x, yz[0])
            bad = self.far(self.scaled(left[0], xy[1:], left[1:]),
                           self.scaled(right[0], yz[1:], right[1:]), tol)
            i, j, k = np.nonzero(bad)
            found.append(np.stack([a + i, middle[j], k]))
        return np.concatenate(found, axis=1)

    def _star_laws(self, tol) -> list:
        """x** = x on every slot, then (xy)* = y* x* on every pair of slots
        in the order (s, t, x, y)."""
        B = self.B
        T, inv, ps, px = B.T, B.inv, B.slot_s, B.slot_x
        lab, pts = B.S.label, B.points
        sx = self.star(ps, px)
        back = self.star(inv[ps], sx[0])
        bad = self.far(self.scaled(back[0], self.conj(*sx[1:]), back[1:]), self.unit(px), tol)
        out = [("involutive", (lab(s), pts[s][x])) for s, x in zip(ps[bad], px[bad])]

        s, t, x, y = B.pairs
        xy = self.product(s, t, x, y)
        lhs = self.star(T[s, t], xy[0])
        sy, sx = self.star(t, y), self.star(s, x)
        rhs = self.product(inv[t], inv[s], sy[0], sx[0])
        bad = self.far(self.scaled(lhs[0], self.conj(*xy[1:]), lhs[1:]),
                       self.scaled(rhs[0], sy[1:], sx[1:], rhs[1:]), tol)
        out += [("anti-multiplicative", (lab(s), lab(t), pts[s][x], pts[t][y]))
                for s, t, x, y in zip(s[bad], t[bad], x[bad], y[bad])]
        return out

    def _inclusion_laws(self, tol) -> list:
        """The six inclusion families on every point x of fiber s, s <= t:
        isometric, identity, functorial over the r between, star, then
        products with every point y of every fiber u on the left and on the
        right."""
        B = self.B
        T, inv, ps, px, leq = B.T, B.inv, B.slot_s, B.slot_x, B.leq
        s, t, x = B.below
        jp = self.include(s, t, x)
        lab, pts = B.S.label, B.points

        def at(i):
            return lab(s[i]), lab(t[i]), pts[s[i]][x[i]]

        found = []  # (sort key, violation)
        iso = (jp[0] == NOWHERE) & (1.0 > tol)
        if not self.exact:
            iso |= (jp[1] < 0) & (np.abs(np.abs(jp[2]) - 1) > tol)
        found += [((i, 0), ("inclusion-isometric", at(i))) for i in np.flatnonzero(iso)]
        ident = (s == t) & self.far(jp, self.unit(x), tol)
        found += [((i, 1), ("inclusion-identity", at(i)[::2])) for i in np.flatnonzero(ident)]

        i, r = np.nonzero(leq[s] & leq.T[t])
        inner = self.include(s[i], r, x[i])
        outer = self.include(r, t[i], inner[0])
        bad = self.far(self.scaled(outer[0], inner[1:], outer[1:]),
                       tuple(a if a is None else a[i] for a in jp), tol)
        found += [((i, 2, r), ("inclusion-functorial", (at(i)[0], lab(r), *at(i)[1:])))
                  for i, r in zip(i[bad], r[bad])]

        lhs = self.star(t, jp[0])
        sx = self.star(s, x)
        rhs = self.include(inv[s], inv[t], sx[0])
        bad = self.far(self.scaled(lhs[0], self.conj(*jp[1:]), lhs[1:]),
                       self.scaled(rhs[0], sx[1:], rhs[1:]), tol)
        found += [((i, 3), ("inclusion-star", at(i))) for i in np.flatnonzero(bad)]

        u, y = ps[None, :], px[None, :]
        step = max(1, CHUNK // max(1, B.M))
        for a in range(0, len(s), step):
            s_, t_, x_ = (v[a:a + step, None] for v in (s, t, x))
            j_ = tuple(v if v is None else v[a:a + step, None] for v in jp)
            for side, tag in enumerate(("inclusion-product-left", "inclusion-product-right")):
                if side == 0:
                    lhs, m = self.product(t_, u, j_[0], y), self.product(s_, u, x_, y)
                    rhs = self.include(T[s_, u], T[t_, u], m[0])
                else:
                    lhs, m = self.product(u, t_, y, j_[0]), self.product(u, s_, y, x_)
                    rhs = self.include(T[u, s_], T[u, t_], m[0])
                bad = self.far(self.scaled(lhs[0], j_[1:], lhs[1:]),
                               self.scaled(rhs[0], m[1:], rhs[1:]), tol)
                found += [((a + i, 4, q, side),
                           (tag, (*at(a + i)[:2], lab(ps[q]), at(a + i)[2], pts[ps[q]][px[q]])))
                          for i, q in zip(*np.nonzero(bad))]
        return [v for _, v in sorted(found, key=lambda f: f[0])]

    # -- the norm axioms, read off the rows

    def norm_violations(self, tol) -> list:
        """The norm axioms in each fiber's sup norm, read off the rows:
        submultiplicative (s, t) for a product scalar of modulus over one;
        star-isometric s unless the star rows of s biject fiber s onto s*
        with unit scalars; cstar-identity s for a delta_x* delta_x (x in
        fiber s) zero or c delta_z with |c| != 1; positivity (s, z) for a
        delta_x* delta_y = c delta_z (x, y in fiber s) with x != y or c not
        >= 0.  tol bounds each comparison of a modulus or a value.

        Lemma: on a pointwise table (for each (s, t), the live product rows
        have distinct x and distinct z) whose keys do not repeat, these are
        the failures of ||fg|| <= ||f|| ||g||, ||f*|| = ||f||, ||f*f|| =
        ||f||^2 and f*f >= 0 over all f, g.  One row meets each z, so ||fg||
        = max |f(x) g(y) c| <= ||f|| ||g|| max |c|, equal at point masses.
        ||f*|| = ||f|| iff each x has a star row, to distinct targets, with
        a unit scalar (else a point mass or a difference of two fails), and
        injective for every s is bijective.  A zero delta_x* delta_x fails
        at f = delta_x; else each one's row is the one live row at its first
        point, so f*f = sum |f(x)|^2 c_x delta_z(x), the z(x) distinct.
        (f*f)(z) sums conj(f(x)) f(y) c over the delta_x* delta_y = c
        delta_z, >= 0 for all f iff each has x = y and c >= 0.  Linearity
        holds by construction.  A table that is not pointwise is a one-fiber
        algebra whose products add terms, whose C*-norm is not the sup norm:
        only star-isometric, of the star rows alone, is read there, and
        positivity at x = y where delta_z* delta_z = b delta_z, b > 0: then
        p = delta_z / b = p*p is a projection, and c b p >= 0 forces c > 0.
        """
        B, N, exact = self.B, self.N, self.exact
        n, inv, W, lab = B.S.n, B.inv, B.W, B.S.label

        def unit(K, V):
            return True if exact else (K >= 0) | (np.abs(np.abs(V) - 1) <= tol)

        def positive(K, V):
            return mod(K, N) == 0 if exact else np.where(
                K >= 0, mod(K, N) == 0, (np.abs(V.imag) <= tol) & (V.real >= -tol))

        pair, x, _, z, K, _ = B.products
        live = B.values[0] != 0
        pointwise = not any((np.diff(np.sort((pair * W + k)[live])) == 0).any() for k in (x, z))
        big = pointwise & (K == NOT_ANGLE) & (np.abs(B.values[0]) > 1 + tol)
        out = [("submultiplicative", (lab(p // n), lab(p % n))) for p in np.unique(pair[big])]
        i, y = np.nonzero(np.arange(W) < B.cs[B.slot_s][:, None])  # each x, y of one fiber s
        s, x, diag = B.slot_s[i], B.slot_x[i], B.slot_x[i] == y
        u, *a = self.star(s, x)
        hit = np.unique((s * W + u)[diag & (u != NOWHERE) & unit(*a)])
        iso = (np.bincount(hit // W, minlength=n) == B.cs) & (B.cs == B.cs[inv])
        out += [("star-isometric", lab(t)) for t in np.flatnonzero(~iso)]
        m = self.product(inv[s], s, u, y)
        z, *c = self.scaled(m[0], a, m[1:])
        live, pos = z != NOWHERE, positive(*c)
        if pointwise:
            out += [("cstar-identity", lab(t)) for t in np.unique(s[diag & ~(live & unit(*c))])]
            bad = live & ~(diag & pos)
        else:
            proj = np.zeros(B.M + 1, dtype=bool)  # delta_z* delta_z = b delta_z, b > 0
            proj[i[diag]] = ((z == x) & pos)[diag]
            bad = diag & live & ~pos & proj[np.where(live, B.off[B.T[inv[s], s]] + z, B.M)]
        out += [("positivity", (lab(k // W), B.points[B.T[inv[k // W], k // W]][k % W]))
                for k in np.unique((s * W + z)[bad])]
        return out


def ref_build_bundle(A: TwistedAction) -> Bundle:
    """The bundle of a twisted action: the fiber over s is functions on U(ss*).

    Product:    (f.g)(y) = f(y) g(theta_s^{-1} y) omega(s,t)(y)
    Involution: f*(x)    = conj(f(theta_s x)) conj(omega(s*,s)(x))
    Inclusion:  j(t,s)(f)(y) = f(y) conj(omega(t, s*s)(y)), zero-extended.

    The rows come from the action's exponent arrays; the products are the
    frame's live omega slots, read through its slot table.
    """
    F, W, N = A.frame, A.W.reshape(-1), A.N
    n, m, T, inv, fib = F.n, F.m, F.T, F.inv, F.fib
    num = np.where(fib, np.cumsum(fib, axis=1) - 1, -1)  # [s, i]: point i in fiber s
    points = [[x for x, inside in zip(F.points, row) if inside] for row in fib.tolist()]

    def through(theta, s, x):
        image = theta[s, x]
        if (image < 0).any():  # as a partial bijection raises
            raise KeyError(F.points[x[np.argmax(image < 0)]])
        return image

    def scalars(at, conj):
        """omega at the flat slots `at` of W, conjugated if `conj`; a value
        that is no angle from A.V, zero outside the carrier."""
        k = W.take(at)
        if not (k < 0).any():
            return mod(-k, N) if conj else k, None
        V = np.zeros(len(at), dtype=complex) if A.V is None else np.where(k == NOT_ANGLE, A.V.take(at), 0)
        return np.where(k >= 0, mod(-k if conj else k, N), NOT_ANGLE), np.conj(V) if conj else V

    at, cs, ct, cst = F.slots
    if (ct < 0).any():  # theta_s^-1 undefined at y, as a partial bijection raises
        raise KeyError(F.points[at[np.argmax(ct < 0)] % m])
    products = (at // m, num.take(cs), num.take(ct), num.take(cst), *scalars(at, False))
    s, x = index_pairs(fib[inv])
    stars = (s, num[s, through(F.th, s, x)], num[inv[s], x], *scalars((inv[s] * n + s) * m + x, True))
    lo, hi = index_pairs(F.leq)
    i, y = index_pairs(fib[lo])
    s, t = lo[i], hi[i]
    inclusions = (s * n + t, num[s, y], num[t, y], *scalars((t * n + T[inv[s], s]) * m + y, True))
    return Bundle(A.S, points, N, products, stars, inclusions, "action", A=A)


def ref_classify_bundle(B, tol: float = 1e-9):
    """Report saturation, semi-abelianness, and fiberwise regularity.

    Regularity of a commutative-model fiber means the constant-one
    function is a two-sided generating multiplier; the witness family is
    returned when every fiber is regular.
    """
    S, n, T = B.S, B.S.n, B.T.ravel()
    # whether the product rows of (s, t) reach exactly the points of fiber st
    pair, _, _, z = B.products[:4]
    inside = (z >= 0) & (z < B.cs[T[pair]])
    hit = np.zeros((n * n, B.W), dtype=bool)
    hit[pair[inside], z[inside]] = True
    reached = (hit.sum(axis=1) == B.cs[T]) & (np.bincount(pair[~inside], minlength=n * n) == 0)
    unsat = [(S.label(p // n), S.label(p % n)) for p in np.flatnonzero(~reached)]

    # in the fiber of an idempotent, delta_y delta_x must be delta_x delta_y
    pair, x, y, z, K = B.products[:5]
    idem = np.zeros(n * n, dtype=bool)
    idem[np.array(S.idem, dtype=np.intp) * (n + 1)] = True
    r = np.flatnonzero(idem[pair])
    row = {key: i for i, key in zip(r.tolist(), zip(pair[r].tolist(), x[r].tolist(), y[r].tolist()))}
    semi_abelian = all(
        j is not None and z[i] == z[j]
        and (K[i] == K[j] >= 0 or abs(B.values[0][i] - B.values[0][j]) <= tol)
        for (p, a, c), i in row.items() for j in [row.get((p, c, a))])

    # the constant-one multiplier times a point mass is that point mass's
    # row, so it generates fiber s from either side iff the rows cover it
    ar = np.arange(n)
    regular = reached[ar * n + B.T[B.inv, ar]] & reached[B.T[ar, B.inv] * n + ar]
    regular = {S.label(s): bool(regular[s]) for s in S.elements()}
    return {"saturated": not unsat, "unsaturated_pairs": unsat, "semi_abelian": semi_abelian,
            "regular": regular,
            "witness": ref_canonical_multipliers(B) if all(regular.values()) else None}


def ref_canonical_multipliers(B) -> tuple:
    """The constant-one multiplier family: exponent zero on every slot."""
    return 1, held(np.where(np.arange(B.W) < B.cs[:, None], 0, OUTSIDE), 1), None


def ref_extract(B, u):
    """X, U, theta and omega of the action of B and u: omega(s, t) as
    exponents mod N, K[s n + t, c], and values V, over the points c of
    fiber e[s n + t] = st (st)*."""
    S, n, W = B.S, B.S.n, B.W
    info = ref_classify_bundle(B)
    if not info["saturated"]:
        raise NotSaturated(str(info["unsaturated_pairs"]))
    if not info["semi_abelian"]:
        raise NotSemiAbelian("an idempotent fiber is noncommutative")
    check_multiplier_family(B, u)
    Nu, uK, uV = u
    N, ar, T, inv, pts = lcm(B.N, Nu), np.arange(n), B.T, B.inv, B.points
    us = held(widen(uK, Nu, N), N), turns(uK, Nu, uV).reshape(n, W)
    (_, px, py, pz, pK, _), (_, sx, sz, sK, _) = B.products, B.stars
    pK, sK, (pV, sV, _) = widen(pK, B.N, N), widen(sK, B.N, N), B.values

    def total(b, z, size, K, V):
        """The terms (K, V) summed at (b[i], z[i]): a lone angle term keeps
        its exponent, several make a complex sum, none is OUTSIDE."""
        live = V != 0
        at = (b * W + z)[live]
        count = np.bincount(at, minlength=size * W)
        value = np.bincount(at, V[live].real, size * W) + 1j * np.bincount(at, V[live].imag, size * W)
        one = np.full(size * W, OUTSIDE, dtype=K.dtype)
        one[at] = K[live]
        one[count > 1] = NOT_ANGLE
        return one.reshape(size, W), value.reshape(size, W)

    def mul(pair, f, g):
        """f[b] in fiber s times g[b] in fiber t, (s, t) = divmod(pair[b], n),
        elements as pairs (K, V) of (batch, W) arrays, through the rows."""
        b, r = _expand(*B.spans[0], pair)
        k = (f[0][b, px[r]], g[0][b, py[r]], pK[r])
        K = np.where((k[0] >= 0) & (k[1] >= 0) & (k[2] >= 0), mod(k[0] + k[1] + k[2], N), NOT_ANGLE)
        return total(b, pz[r], len(pair), K, f[1][b, px[r]] * g[1][b, py[r]] * pV[r])

    b, r = _expand(*B.spans[1], ar)  # u_s* for every s, through the star rows
    k = us[0][b, sx[r]]
    ustar = total(b, sz[r], n, np.where((k >= 0) & (sK[r] >= 0), mod(sK[r] - k, N), NOT_ANGLE),
                  np.conj(us[1][b, sx[r]]) * sV[r])

    # theta_s(x), x in fiber s*s, is the one point of (u_s delta_x) u_s*,
    # and omega(s, t) is u_s u_t u_st* on the fiber of st (st)*: one batch
    # of (u_left g) u_star*, theta's entries first
    s = np.repeat(ar, B.cs[T[inv, ar]])
    x = np.arange(len(s)) - _starts(B.cs[T[inv, ar]])[s]
    delta = np.arange(W) == x[:, None]
    pair, st = np.arange(n * n), T.ravel()
    left, star = np.concatenate([s, pair // n]), np.concatenate([s, st])
    g = (np.concatenate([np.where(delta, 0, OUTSIDE).astype(us[0].dtype), us[0][pair % n]]),
         np.concatenate([delta + 0j, us[1][pair % n]]))
    m = mul(np.concatenate([s * n + T[inv[s], s], pair]), (us[0][left], us[1][left]), g)
    K, V = mul(star * n + inv[star], m, (ustar[0][star], ustar[1][star]))
    support, K, V = V[:len(s)] != 0, K[len(s):], V[len(s):]
    if (support.sum(axis=1) != 1).any():
        raise BundleError("conjugation by the multiplier is not point-to-point")
    z = support.argmax(axis=1)
    if len(np.unique(s * W + z)) < len(s):  # two points of a fiber conjugate to one
        raise ValueError("mapping is not injective")
    theta = {t: {} for t in S.elements()}
    for t, y, z in zip(s.tolist(), x.tolist(), z.tolist()):
        theta[t][pts[S.mul(S.inv[t], t)][y]] = pts[S.mul(t, S.inv[t])][z]
    e = T[st, inv[st]]
    live = np.arange(W) < B.cs[e][:, None]
    if (live & (V == 0)).any():
        raise BundleError("multiplier coordinate vanishes")
    X = sorted(set().union(*(B.carrier(e) for e in S.idem)), key=str)
    U = {s: B.carrier(S.mul(s, S.inv[s])) for s in S.elements()}
    return X, U, theta, N, e, K, V


def ref_roundtrip_check(A: TwistedAction):
    """Build the bundle, extract with the canonical family, compare exactly:
    theta as maps, omega with omega_differs.  The bundle's slots are A's
    fiber points in A's point order, so the extracted exponents land on A's
    points without a second Frame."""
    B = RefRows(ref_build_bundle(A))
    X, U, theta, N, e, K, V = ref_extract(B, ref_canonical_multipliers(B))
    S, F = A.S, A.frame
    W, V = _placed(B, e, K, V, np.nonzero(F.fib)[1], F.m)
    diff = [("theta", S.label(s)) for s in S.elements() if A.theta[s] != theta[s]]
    differ = omega_differs((A.N, A.W, A.V), (N, W, V))
    diff += [("omega", (S.label(s), S.label(t))) for s, t in zip(*np.nonzero(differ))]
    ok = not diff and A.X == X and A.U == U
    return ok, None if ok else diff


def ref_verify(B, tol=1e-9):
    """Bundle.verify, as the former Lookup computed it."""
    R = RefRows(B)
    bad = R.fiber_violations() or R.lookup().exact_violations(tol)
    return not bad, bad


def ref_verify_fell(B, tol=1e-9):
    """verify_fell_bundle, as the former Lookup computed it."""
    R = RefRows(B)
    bad = R.fiber_violations() or R.lookup().exact_violations(tol) + R.lookup().norm_violations(tol)
    return not bad, bad


def ref_extract_action(B, u):
    """extract_action through ref_extract."""
    X, U, theta, N, e, K, V = ref_extract(RefRows(B), u)
    F = Frame(B.S, X, U, theta)
    where = np.array([F.index.get(y, -1) for p in B.points for y in p], dtype=np.intp)
    return TwistedAction.from_exponents(F, N, *_placed(B, e, K, V, where, F.m))
