"""Twisted actions of finite inverse semigroups on functions over a finite set.

An action consists of carrier subsets U(s) of the point set X (the ideals),
partial bijections theta_s moving points, given as dicts {x: theta_s(x)}
(the isomorphisms between ideals, acting on functions by pullback along
the inverse), and unit-modulus cocycle functions omega(s, t) carried by
U(st), given as dicts {x: value}.

A value is a turn, a Fraction in [0, 1) (an int or 'p/q' text is read as
one), or a complex number where it is not an angle; 0j is zero.  Every
turn is k/N, with N the lcm of the denominators, so the axioms, their
consequences, the Sieben condition and gauges are identities between
integer exponents mod N.  A TwistedAction is its arrays, built once when
it is made: a Frame (the Cayley table, the carriers as a mask, theta as
index arrays) and the omega exponents W[s, t, x], with a complex array V
only where a value is not an angle, as a Bundle's rows hold scalars.  The
checks are gathers and comparisons on these arrays, with zero tolerance;
exponents are int64 while every sum of four of them fits, and Python
integers beyond.  The omega mapping is a read-only view.  A gauge chi is
exponents too: (N, C), C[s, x] the exponent of chi_s at the frame's
point x, OUTSIDE off the fiber carriers, as random_gauge and siebenize
make it and gauge_transform reads it.

A Frame builds one slot table, once: the flat positions of the live omega
slots (s, t, y), y in U(st (st)*), in row-major order, and for each slot
the flat positions in an n x m gauge of chi_s(y), chi_t(theta_s^-1 y) and
chi_st(y).  gauge_transform, and so siebenize, is three takes from the
gauge, a sum mod N and a scatter over these slots; build_bundle's product
rows are these slots.  A Frame also builds a cocycle table: for each live
instance (r, s, t, x) of the cocycle identity, x in U(r*r) & U(st (st)*),
the flat positions in W of its four factors.  verify_twisted_action's
cocycle family is four takes from W, a sum and a reduction mod N over it.
The table is kept only when the scan over the pairs (r, x) fits in one
CHUNK, so a kept table is at most 4 CHUNK intp; a larger scan builds a
table per chunk.  verify_consequences reads W as n^2 rows of m, checks
monotonicity over the order pairs only, and compares carriers packed
eight points to a byte.  A Frame's arrays and tables are read-only, so no
cached table goes stale.  Every exponent identity reduces mod N with mod,
a floor division and a product, which numpy runs faster than its
remainder by a scalar.

The germ groupoid is the quotient of the pairs (t, x), x in U(t*t), by the
inclusion order.  Its closed form is index arithmetic: with e_x the product
of the idempotents whose carriers hold x, [s, x] = [t, x] exactly when
s e_x = t e_x, and a coordinate is a difference of two inclusion scalars
conj(omega(t, s*s)) of the action's bundle, gathered as exponents mod N.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import lcm

import numpy as np

from fellsem.angles import as_frac, turn
from fellsem.isg import InverseSemigroup, first_true, index_pairs

# array entries a chunked family gathers at once
CHUNK = 1 << 18
# int64 holds every sum of four exponents mod N while N <= 2**61
INT64_MODULUS = 2 ** 61
# exponent codes: outside the carrier of omega(s, t), or no angle there
OUTSIDE, NOT_ANGLE = -1, -2


class ActionError(ValueError):
    pass


class GaugeNotUnitAtIdempotent(ActionError):
    pass


class CarrierMismatch(ValueError):
    pass


class Frame:
    """The semigroup, points, carriers and theta of an action as given (S, X,
    sets, maps) and as arrays; an action and its gauge transforms share one.

    Points are indexed X first, then any other point the data names.
    theta[s] is a dict {x: theta_s(x)}, which must be injective.
    U and fib are n x m masks of U(s) and of the fiber carrier U(ss*);
    th and thi index arrays of theta_s and its inverse, -1 where undefined.
    The tables (thi, fib_of_product, slots, pairs, cocycle) are built once,
    when first read, and every array is read-only.  cocycle is None when
    its scan is more than CHUNK entries, so a kept cocycle table holds at
    most 4 CHUNK intp.
    """

    def __init__(self, S: InverseSemigroup, X, U, theta, more_points=()):
        self.S, self.X = S, list(X)
        U = self.sets = {s: frozenset(U[s]) for s in S.elements()}
        theta = self.maps = {s: dict(theta[s]) for s in S.elements()}
        n = self.n = S.n
        self.T, self.leq = S.cayley, S.order
        self.inv = np.array(S.inv, dtype=np.intp).reshape(n)
        self.idem = np.array(S.idem, dtype=np.intp).reshape(-1)
        points = list(dict.fromkeys(self.X))
        named = set(more_points).union(*U.values(), *theta.values(), *map(dict.values, theta.values()))
        points += sorted(named.difference(points), key=repr)
        self.points = points
        self.index = index = {x: i for i, x in enumerate(points)}
        m = self.m = len(points)
        self.in_X = np.zeros(m, dtype=bool)
        self.in_X[[index[x] for x in set(self.X)]] = True
        self.U = np.zeros((n, m), dtype=bool)
        self.th = np.full((n, m), -1, dtype=np.intp)
        self.U[[s for s in S.elements() for _ in U[s]],
               [index[x] for s in S.elements() for x in U[s]]] = True
        maps = [(s, index[x], index[y]) for s in S.elements() for x, y in theta[s].items()]
        if maps:
            s, x, y = zip(*maps)
            self.th[s, x] = y
        image = np.sort(self.th, axis=1)
        if ((image[:, 1:] == image[:, :-1]) & (image[:, 1:] >= 0)).any():
            raise ValueError("mapping is not injective")
        self.fib = self.U[self.T[np.arange(n), self.inv]]
        _freeze(self.U, self.th, self.fib, self.in_X, self.inv, self.idem)

    @cached_property
    def thi(self) -> np.ndarray:
        thi = np.full((self.n, self.m + 1), -1, dtype=np.intp)
        rows = np.arange(self.n)[:, None]
        thi[rows, self.th] = np.arange(self.m)  # undefined points land in the last column
        return _freeze(np.ascontiguousarray(thi[:, :self.m]))

    @cached_property
    def fib_of_product(self) -> np.ndarray:
        """[s, t, x]: x in the fiber carrier over st."""
        return _freeze(self.fib.take(self.T, axis=0))

    @cached_property
    def slots(self) -> np.ndarray:
        """The slot table of the live omega slots, (s, t, y) with y in
        U(st (st)*), in row-major order (see slot_table)."""
        return self.slot_table(np.flatnonzero(self.fib_of_product))

    def slot_table(self, at) -> np.ndarray:
        """Rows at, cs, ct, cst for the flat positions `at` of slots (s, t,
        y) of an n x n x m grid: cs, ct and cst are the flat positions in an
        n x m gauge of chi_s(y), chi_t(theta_s^-1 y) and chi_st(y), with ct
        -1 where theta_s^-1 is undefined at y."""
        n, m = self.n, self.m
        st = at // m  # s n + t
        s, y = st // n, at - st * m
        cs = s * m + y
        back = self.thi.take(cs)
        ct = np.where(back >= 0, (st - s * n) * m + back, -1)
        return _freeze(np.array([at, cs, ct, self.T.take(st) * m + y]))

    @cached_property
    def pairs(self) -> np.ndarray:
        """The pairs (r, x), x in U(r*r), as flat positions r m + x of an n x
        m grid, in row-major order."""
        ar = np.arange(self.n)
        return _freeze(np.flatnonzero(self.U[self.T[self.inv, ar]]))

    @cached_property
    def cocycle(self) -> np.ndarray | None:
        """The cocycle table of all the pairs when the scan over them, n^2
        entries a pair, is at most CHUNK entries; else None, and a caller
        builds a table per chunk of pairs."""
        if len(self.pairs) * self.n ** 2 > CHUNK:
            return None
        return self.cocycle_table(self.pairs)

    def cocycle_table(self, pairs) -> np.ndarray:
        """Rows a, b, c, d of flat positions in an n x n x m omega array for
        the live instances (r, s, t, x) of the cocycle identity
        omega(s,t)(x) omega(r,st)(y) = omega(r,s)(y) omega(rs,t)(y), y =
        theta_r(x), of the given pairs r m + x: a is omega(s, t) at x, b
        omega(r, st) at y, c omega(r, s) at y and d omega(rs, t) at y.  An
        instance is live when x is in U(st (st)*), omega(s, t)'s carrier
        once an action has passed the structure family; the instances come
        pair by pair, in the order given, and then by s n + t."""
        n, m, T = self.n, self.m, self.T
        nn = n * n
        # the live (s, t, x), point by point, and each row's part that does
        # not depend on r: (s n + t) m + x, T[s, t] m, s and t m
        q = np.flatnonzero(self.fib_of_product.reshape(nn, m).T)  # x n^2 + s n + t
        point = q // nn
        st = q - point * nn
        s = st // n
        parts = np.array([st * m + point, T.take(st) * m, s, (st - s * n) * m])
        ends = np.searchsorted(point, np.arange(m + 1))  # point x's parts: ends[x]:ends[x + 1]
        r = pairs // m
        x = pairs - r * m
        out = np.concatenate([parts[:, ends[i]:ends[i + 1]] for i in x.tolist()] or [parts[:, :0]], axis=1)
        _, b, c, d = out
        count = np.diff(ends).take(x)
        rn = np.repeat(r * n, count)
        c += rn  # r n + s
        d += T.take(c) * (n * m)
        y = np.repeat(self.th.reshape(-1).take(pairs), count)  # theta_r(x)
        b += rn * m + y
        c *= m
        c += y
        d += y
        return _freeze(out)


def _freeze(*arrays):
    """Make the arrays read-only; the last one."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[-1]


def _exponent_dtype(N: int):
    return np.int64 if N <= INT64_MODULUS else object


def mod(K, N: int):
    """K mod N, in [0, N), as K - K // N N: numpy runs a floor division by a
    scalar in a strength-reduced loop and its remainder in a far slower
    one.  An array result is written over the quotient, so it allocates as
    K % N does.  Exact for object arrays and Python integers."""
    q = K // N
    if not isinstance(q, np.ndarray):
        return K - q * N
    q *= N
    return np.subtract(K, q, out=q)


def exponents(fracs):
    """N, the lcm of the denominators, and each fraction p/q in [0, 1) as
    the exponent p (N/q) mod N; NOT_ANGLE for None."""
    N = lcm(1, *{f.denominator for f in fracs if f is not None})
    return N, np.array([NOT_ANGLE if f is None else f.numerator * (N // f.denominator)
                        for f in fracs], dtype=_exponent_dtype(N))


def widen(K, N: int, to: int):
    """Exponents mod N as exponents mod to, a multiple of N; the codes stay.
    K itself when to is N: copy before writing into the result."""
    if to == N:
        return K
    return np.where(K >= 0, K.astype(_exponent_dtype(to)) * (to // N), K)


def turns(K, N: int, V=None) -> np.ndarray:
    """The complex values turn(k, N) of exponents k mod N, flat: from a
    table of all N turns, or one per distinct exponent.  A code reads 0j,
    except NOT_ANGLE where the values V (of K's shape) are given, which
    reads V there."""
    K = np.asarray(K).reshape(-1)
    if N <= len(K):
        values = np.array([turn(k, N) for k in range(N)] + [0j])[np.where(K >= 0, K, N)]
    else:
        memo = {}
        values = np.array([memo[k] if k in memo else memo.setdefault(k, turn(k, N) if k >= 0 else 0j)
                           for k in K.tolist()], dtype=complex).reshape(-1)
    return values if V is None else np.where(K == NOT_ANGLE, np.asarray(V).reshape(-1), values)


class Omega(dict):
    """omega(s, t) as {point: turn, or a complex value where it is not an
    angle}, callable at a point.  Each read of A.omega builds a new one, so
    changing it changes nothing in the action."""

    __call__ = dict.__getitem__


class OmegaView(Mapping):
    """omega(s, t) for every pair of elements, as an Omega built when it
    is read."""

    def __init__(self, A: "TwistedAction"):
        self.n, self.points, self.N, self.W, self.V = A.S.n, A.frame.points, A.N, A.W, A.V
        self.memo = {}  # one Fraction per exponent

    def __getitem__(self, key) -> Omega:
        s, t = key
        if not (0 <= s < self.n and 0 <= t < self.n):
            raise KeyError(key)
        points, memo = self.points, self.memo
        return Omega((points[i], memo[k] if k in memo else memo.setdefault(k, Fraction(k, self.N))
                      if k >= 0 else complex(self.V[s, t, i]))
                     for i, k in enumerate(self.W[s, t].tolist()) if k != OUTSIDE)

    def __iter__(self):
        return ((s, t) for s in range(self.n) for t in range(self.n))

    def __len__(self) -> int:
        return self.n ** 2


class TwistedAction:
    """(S, X, U, theta, omega) with omega held as exact exponents.

    The constructor takes theta as {s: {x: theta_s(x)}} and omega as
    {(s, t): {x: value}}, a value a turn or a complex number (see the
    module docstring), the keys of omega(s, t) its carrier.  It encodes
    them once, into the arrays every check reads: frame (a Frame), N, W (n
    x n x m exponents mod N, OUTSIDE off the carriers, NOT_ANGLE where a
    value is not an angle) and V (those values, or None if there are
    none).  Builders that have exponents make an action from them with
    from_exponents.  The arrays are read-only, and X, U and theta must not
    be changed in place.  `omega` is a read-only view of the arrays.
    """

    def __init__(self, S: InverseSemigroup, X, U, theta, omega):
        n = S.n
        entries = [(s * n + t, x, v) for s in range(n) for t in range(n) for x, v in omega[(s, t)].items()]
        keys, points, vals = zip(*entries) if entries else ((),) * 3
        fracs = [None if isinstance(v, complex) else as_frac(v) for v in vals]
        frame = Frame(S, X, U, theta, points)
        N, K = exponents(fracs)
        at = np.array(keys, dtype=np.intp) * frame.m + np.array([frame.index[x] for x in points],
                                                                dtype=np.intp)
        W, V = np.full(n * n * frame.m, OUTSIDE, dtype=K.dtype), None
        W[at] = K
        if (K == NOT_ANGLE).any():
            V = np.zeros(len(W), dtype=complex)
            V[at[K == NOT_ANGLE]] = [v for f, v in zip(fracs, vals) if f is None]
            V = V.reshape(n, n, frame.m)
        self._hold(frame, N, W.reshape(n, n, frame.m), V)

    @classmethod
    def from_exponents(cls, frame: Frame, N: int, W, V=None) -> "TwistedAction":
        """The action of frame's S, X, U and theta with the omega of W and V."""
        A = cls.__new__(cls)
        A._hold(frame, N, W, V)
        return A

    def _hold(self, frame, N, W, V):
        self.S, self.X, self.U, self.theta = frame.S, list(frame.X), dict(frame.sets), dict(frame.maps)
        self.frame, self.N, self.W, self.V = frame, N, W, V
        for a in (W,) if V is None else (W, V):
            a.flags.writeable = False

    @cached_property
    def omega(self) -> OmegaView:
        return OmegaView(self)

    def _bad_value(self, s, t, y, what="undefined") -> ActionError:
        return ActionError(f"omega({self.S.label(s)},{self.S.label(t)}) {what} at {y}")

    def structural_violations(self):
        S, F, W = self.S, self.frame, self.W
        out = []
        covered = F.U[F.idem].any(axis=0)
        if (covered != F.in_X).any():
            out.append(("carrier-cover", sorted(set(self.X).difference(
                F.points[i] for i in np.flatnonzero(covered)))))
        mismatch = (F.U != F.fib).any(axis=1)
        dom = F.th >= 0
        rng = np.zeros((F.n, F.m + 1), dtype=bool)
        rng[np.arange(F.n)[:, None], F.th] = True
        endpoints = ((dom != F.U[F.T[F.inv, np.arange(F.n)]]) | (rng[:, :F.m] != F.fib)).any(axis=1)
        for s in np.flatnonzero(mismatch | endpoints):
            if mismatch[s]:
                out.append(("carrier-mismatch", S.label(s)))
            if endpoints[s]:
                out.append(("theta-endpoints", S.label(s)))
        identity = np.where(F.U[F.idem], np.arange(F.m), -1)
        for i in np.flatnonzero((F.th[F.idem] != identity).any(axis=1)):
            out.append(("theta-not-identity", S.label(F.idem[i])))
        carrier = (W != OUTSIDE) != F.fib_of_product
        not_unit = W == NOT_ANGLE
        wrong = carrier.any(axis=2)
        for s, t in zip(*np.nonzero(wrong | not_unit.any(axis=2))):
            if wrong[s, t]:
                out.append(("omega-carrier", (S.label(s), S.label(t))))
            out += [("omega-not-unit", (S.label(s), S.label(t), F.points[x]))
                    for x in np.flatnonzero(not_unit[s, t])]
        return out

    def equals(self, other: "TwistedAction") -> bool:
        """Exact field-by-field comparison over a shared semigroup."""
        if (self.S.n, self.X, self.U, self.theta) != (other.S.n, other.X, other.U, other.theta):
            return False
        # with X, U and theta equal, only omega's carriers add points
        return self.frame.points == other.frame.points and not omega_differs(
            (self.N, self.W, self.V), (other.N, other.W, other.V)).any()

    def to_json(self):
        S, F, W, text = self.S, self.frame, self.W.tolist(), {}
        names = [str(x) for x in F.points]
        order = sorted(range(F.m), key=names.__getitem__)  # the points by str

        def frac(s, t, i):  # as_frac raises on a value that is no angle
            if (k := W[s][t][i]) < 0:
                return str(as_frac(complex(self.V[s, t, i])))
            return text.get(k) or text.setdefault(k, str(Fraction(k, self.N)))

        return {
            "semigroup": S.to_json(),
            "points": [str(x) for x in self.X],
            "U": {S.label(s): sorted(str(x) for x in self.U[s]) for s in S.elements()},
            "theta": {S.label(s): {str(x): str(y) for x, y in sorted(self.theta[s].items())}
                      for s in S.elements()},
            "omega": {f"{S.label(s)},{S.label(t)}":
                      {names[i]: frac(s, t, i) for i in order if W[s][t][i] != OUTSIDE}
                      for s in S.elements() for t in S.elements()},
        }

    @classmethod
    def from_json(cls, data) -> "TwistedAction":
        from fellsem.isg import verify_inverse_semigroup
        sg = data["semigroup"]
        S = verify_inverse_semigroup(sg["table"], labels=sg.get("elements"))
        X = data["points"]
        U = {S.index_of(lab): frozenset(pts) for lab, pts in data["U"].items()}
        theta = {S.index_of(lab): m for lab, m in data["theta"].items()}
        index = {lab: i for i, lab in enumerate(S.labels)}
        omega, parsed = {}, {}  # each text is parsed once
        for key, vals in data["omega"].items():
            s, t = split_labels(key, index, 2)
            fracs = {x: parsed[v] if v in parsed else parsed.setdefault(v, as_frac(v))
                     for x, v in vals.items()}
            st = S.mul(s, t)
            carrier = U[S.mul(st, S.inv[st])]
            if outside := [x for x in fracs if x not in carrier]:
                raise CarrierMismatch(f"value at {outside[0]} outside carrier")
            # omega(s, t) is carried by U(st (st)*); a point it leaves out is zero
            omega[(s, t)] = {x: fracs.get(x, 0j) for x in carrier}
        return cls(S, X, U, theta, omega)


def split_labels(key: str, index, parts: int | None = None) -> tuple:
    """The indices of the labels a comma-joined key lists: the one cut of the
    key at commas into labels of `index` (`parts` of them, when given).
    Labels may contain commas, as those of I_k do; "" lists no labels."""
    def cuts(rest, left):  # at most two cuts of rest into `left` labels
        found = [(index[rest],)] if rest in index and left in (None, 1) else []
        i = rest.find(",") if left != 1 else -1
        while i >= 0 and len(found) < 2:
            if rest[:i] in index:
                found += [(index[rest[:i]],) + tail
                          for tail in cuts(rest[i + 1:], left and left - 1)]
            i = rest.find(",", i + 1)
        return found[:2]

    found = cuts(key, parts) if key or parts else [()]
    if len(found) != 1:
        what = "labels" if parts is None else f"{parts} labels"
        raise ValueError(f"key {key!r} does not split into {what} in exactly one way")
    return found[0]


def omega_differs(one, two) -> np.ndarray:
    """[s, t]: whether omega(s, t) differs between two encodings (N, W, V)
    over one semigroup and one list of points: in its carrier, in an
    exponent, or, where either holds no angle, in value."""
    (N1, W1, V1), (N2, W2, V2) = one, two
    N = lcm(N1, N2)
    K1, K2 = widen(W1, N1, N), widen(W2, N2, N)
    differ = K1 != K2
    odd = ((K1 == NOT_ANGLE) | (K2 == NOT_ANGLE)) & (K1 != OUTSIDE) & (K2 != OUTSIDE)
    for i in zip(*np.nonzero(odd)):
        a, b = (V[i] if K[i] == NOT_ANGLE else turn(int(K[i]), N) for K, V in ((K1, V1), (K2, V2)))
        differ[i] = a != b
    return differ.any(axis=2)


# ---------------------------------------------------------------------------
# axiom verification

def _missing(need, vals, *where):
    """At the first needed position where vals is negative, the indices
    read from the broadcastable arrays `where`; None if there is none."""
    lost = need & (vals < 0)
    if lost.any():
        i = first_true(lost)
        return tuple(int(np.broadcast_to(a, lost.shape)[i]) for a in where)
    return None


def _require(A: TwistedAction, need, *factors):
    """Raise as omega_at would at the first needed point where a factor,
    (values, s, t, x) of broadcastable arrays, holds no angle."""
    for vals, *where in factors:
        if at := _missing(need, vals, *where):
            s, t, x = at
            raise A._bad_value(s, t, A.frame.points[x])


def _require_at(A: TwistedAction, factors):
    """Raise as omega_at would at the first point where a factor, (flat
    positions in W, the values there), holds no angle, factor by factor."""
    n, m = A.S.n, A.frame.m
    for at, vals in factors:
        if (lost := vals < 0).any():
            u, x = divmod(int(at[first_true(lost)[0]]), m)
            raise A._bad_value(*divmod(u, n), A.frame.points[x])


def _require_theta(F: Frame, need, image, x):
    """Raise KeyError, as a partial bijection does, at the first needed
    point x whose image index is undefined."""
    if at := _missing(need, image, x):
        raise KeyError(F.points[at[0]])


def verify_twisted_action(A: TwistedAction):
    """Check the four defining axioms pointwise and exactly, as identities
    between exponents mod N.

    Returns (ok, violations).  Axiom tags: "structure", "composition",
    "cocycle", "unit", "idempotent-splitting".

    The cocycle family is associativity of the bundle: once the structure
    and composition families hold, in build_bundle(A) delta_y in fiber r
    times delta_x in fiber s is omega(r, s)(y) delta_y in fiber rs when x =
    theta_r^-1(y), y in U(rs), and zero otherwise.  So both sides of
    associativity at (delta_y, delta_x, delta_z) in fibers r, s, t are
    nonzero exactly when x is in U(r*r) & U(st), y = theta_r(x) and z =
    theta_s^-1(x) (by U(rst) = theta_r(U(r*r) & U(st)) and theta_rs =
    theta_r theta_s), and zero together otherwise; where nonzero they are
    the two sides of the cocycle identity at (r, s, t, x), times
    delta_y in fiber rst.  When the direct scan below is more than one
    chunk, Light's test on the bundle (bundle.Lookup._associativity)
    decides the family, and only a failure runs the direct scan, which
    lists the violations.

    The direct scan reads the frame's cocycle table (Frame.cocycle_table):
    the positions in W of the four factors of every live instance.  It is
    four takes, a sum and mod N; violations are decoded from the positions.
    A scan of at most CHUNK entries reads the table the frame keeps
    (Frame.cocycle, at most 4 CHUNK intp); a longer one builds a table per
    chunk of pairs (r, x), with the same first failure.
    """
    violations = [("structure", v) for v in A.structural_violations()]
    if violations:
        return False, violations
    S, F, W, N = A.S, A.frame, A.W, A.N
    T, n, ar = F.T, F.n, np.arange(F.n)
    label, points = S.label, F.points

    # (i) theta_r . theta_s = theta_rs, with equal (maximal) domains; an
    # undefined index -1 reads the padding column, which is undefined too
    th = np.concatenate([F.th, np.full((n, 1), -1, dtype=np.intp)], axis=1)
    composed = th[ar[:, None, None], th[None, :, :]]
    for r, s in zip(*np.nonzero((composed != th[T]).any(axis=2))):
        violations.append(("composition", (label(r), label(s))))
    composes = not violations

    # (ii) omega(s,t)(x) omega(r,st)(y) = omega(r,s)(y) omega(rs,t)(y)
    # where x runs over U(r*r) & U(st) and y = theta_r(x): the first factor
    # is evaluated before the r-action moves the point, the rest after.
    # With the structure checked, omega(s, t) is carried by U(st), so the
    # live instances of the frame's cocycle table are those needed; when
    # the maps compose, every other factor is defined where it is needed.
    # The table is chunked over the pairs (r, x), x in U(r*r), n^2 entries
    # a pair; a scan of more than one chunk first runs Light's test on the
    # bundle.
    tables = None if F.cocycle is None else (F.cocycle,)
    if tables is None and composes:
        from fellsem.bundle import build_bundle
        L = build_bundle(A).lookup()
        if not L.nonassociative(0, L.middle).size:
            tables = ()
    if tables is None:
        pairs, step = F.pairs, max(1, CHUNK // (n * n))
        tables = (F.cocycle_table(pairs[c:c + step]) for c in range(0, len(pairs), step))
    Wf, found = W.reshape(-1), [np.empty((2, 0), dtype=np.intp)]
    for table in tables:
        first, *rest = (Wf.take(at) for at in table)
        if not composes:
            _require_at(A, zip(table[1:], rest))
        bad = np.flatnonzero(mod(first + rest[0] - rest[1] - rest[2], N))
        found.append(table[:2, bad])
    st_x, r_st_y = np.concatenate(found, axis=1)
    nm = n * F.m
    for key in np.sort(r_st_y // nm * (n * nm) + st_x).tolist():  # (r, s, t, x) in order
        r, (s, t), x = key // (n * nm), divmod(key // F.m % n ** 2, n), key % F.m
        violations.append(("cocycle", (label(r), label(s), label(t), points[x])))

    # (iii) omega(e,f) = 1 and omega(r, r*r) = omega(rr*, r) = 1
    E = F.idem
    for e, f, x in zip(*np.nonzero(W[E[:, None], E[None, :]] > 0)):
        violations.append(("unit", (label(E[e]), label(E[f]), points[x])))
    first = np.stack([ar, T[ar, F.inv]], axis=1).ravel()
    second = np.stack([T[F.inv, ar], ar], axis=1).ravel()
    for i, x in zip(*np.nonzero(W[first, second] > 0)):
        violations.append(("unit", (label(first[i]), label(second[i]), points[x])))

    # (iv) omega(s*,e)(x) omega(s*e,s)(x) = omega(s*,s)(x) on U(s*es)
    s, ss, e, x = ar[:, None, None], F.inv[:, None, None], E[None, :, None], np.arange(F.m)
    se = T[ss, e]
    need = F.fib[T[se, s], x]
    a, b, c = W[ss, e, x], W[se, s, x], W[ss, s, x]
    _require(A, need, (a, ss, e, x), (b, se, s, x), (c, ss, s, x))
    for s, e, x in zip(*np.nonzero(need & (mod(a + b - c, N) != 0))):
        violations.append(("idempotent-splitting", (label(s), label(E[e]), points[x])))

    return not violations, violations


def verify_consequences(A: TwistedAction):
    """Derived identities that every valid action must satisfy.

    A violation here, on data passing verify_twisted_action, indicates an
    implementation bug rather than bad input.  Returns (ok, violations).
    """
    S, F, W, N = A.S, A.frame, A.W, A.N
    T, n, m, ar, y = F.T, F.n, F.m, np.arange(F.n), np.arange(F.m)[None, :]
    W2 = W.reshape(n * n, m)  # row s n + t: omega(s, t)
    label, points = S.label, F.points
    lo, hi = index_pairs(F.leq)  # the order pairs lo <= hi
    out = []

    # theta_{s*} is the inverse partial bijection
    for s in np.flatnonzero((F.th[F.inv] != F.thi).any(axis=1)):
        out.append(("inverse-map", label(s)))

    # image identity: theta_r(U(r*r) & U(s)) = U(rs), read at y as U(s) at
    # x = theta_r^-1(y) when x is in U(r*r), with the points as the outer
    # axis; the padding row m stands for an undefined or excluded x
    dom = F.U[T[F.inv, ar]]
    if (dom & (F.th < 0)).any():
        _require_theta(F, dom[:, None, :] & F.U[None], F.th[:, None, :], y)
    x = np.where(dom[ar[:, None], F.thi] & (F.thi >= 0), F.thi, m)
    held = np.concatenate([F.U.T, np.zeros((1, n), dtype=bool)]).take(x.T, axis=0)  # [y, r, s]
    image = (held != np.ascontiguousarray(F.fib.T).take(T, axis=1)).any(axis=0)
    for r, s in zip(*index_pairs(image)):
        out.append(("image", (label(r), label(s))))

    # carrier monotonicity, over the order pairs, and intersection, with
    # the carriers packed eight points to a byte, the bytes outermost
    U8 = np.packbits(F.U, axis=1).T
    monotone = np.zeros((n, n), dtype=bool)
    monotone[lo, hi] = (U8[:, lo] & ~U8[:, hi]).any(axis=0)
    P = T[ar, F.inv]
    meet = U8.take(T.take(P, axis=0).take(P, axis=1), axis=1)
    intersection = ((U8[:, :, None] & U8[:, None, :]) != meet).any(axis=0)
    for r, s in zip(*index_pairs(monotone | intersection)):
        if monotone[r, s]:
            out.append(("monotone", (label(r), label(s))))
        if intersection[r, s]:
            out.append(("intersection", (label(r), label(s))))

    # restriction: theta_t agrees with theta_s on U(s*s) when s <= t
    kept = np.where(dom[lo], F.th[hi], -1)
    for i in np.flatnonzero((kept != F.th[lo]).any(axis=1)):
        out.append(("restriction", (label(lo[i]), label(hi[i]))))

    # omega(s*,s) pulled through theta_s equals omega(s,s*)
    s, ss = ar[:, None], F.inv[:, None]
    need = F.fib[T[ar, F.inv]]
    _require_theta(F, need, F.thi, y)
    x = np.maximum(F.thi, 0)
    a, b = W[ss, s, x], W2[ar * n + F.inv]
    _require(A, need, (a, ss, s, x), (b, s, ss, y))
    for s, x in zip(*np.nonzero(need & (mod(a - b, N) != 0))):
        out.append(("flip", (label(s), points[x])))

    # omega(r,e) = 1 whenever e >= r*r
    E = F.idem
    r, e = np.nonzero(F.leq[T[F.inv, ar]][:, E])
    vals = W2[r * n + E[e]]
    for i, x in zip(*np.nonzero((vals > 0) | (vals == NOT_ANGLE))):
        out.append(("dominating-unit", (label(r[i]), label(E[e[i]]), points[x])))

    # omega(t*,s) = omega(t*,ss*) omega(s*,s) pointwise, for s <= t
    ts, e, si = F.inv[hi], T[lo, F.inv[lo]], F.inv[lo]
    need = F.fib[T[ts, lo]]
    a, b, c = W2[ts * n + lo], W2[ts * n + e], W2[si * n + lo]
    s, ts, e, si = (v[:, None] for v in (lo, ts, e, si))
    _require(A, need, (a, ts, s, y), (b, ts, e, y), (c, si, s, y))
    for i, x in zip(*np.nonzero(need & (mod(a - b - c, N) != 0))):
        out.append(("star-restriction", (label(lo[i]), label(hi[i]), points[x])))

    # transition chain: omega(t,r*r) = omega(t,s*s) omega(s,r*r) on U(r), r<=s<=t
    i, t = index_pairs(F.leq.take(hi, axis=0))
    r, s = lo[i], hi[i]
    rr, sn = T[F.inv[r], r], T[F.inv[s], s]
    need = F.fib[T[t, rr]]
    a, b, c = W2[t * n + rr], W2[t * n + sn], W2[s * n + rr]
    r, s, t, rr, sn = (v[:, None] for v in (r, s, t, rr, sn))
    _require(A, need, (a, t, rr, y), (b, t, sn, y), (c, s, rr, y))
    for i, x in zip(*np.nonzero(need & (mod(a - b - c, N) != 0))):
        out.append(("chain", (label(r[i, 0]), label(s[i, 0]), label(t[i, 0]), points[x])))

    return not out, out


# ---------------------------------------------------------------------------
# Sieben condition and gauges

def check_sieben(A: TwistedAction):
    """True iff omega(s, e) and omega(e, s) are constant one for idempotent
    e; a value that is not an angle is not one."""
    S, F, W, E = A.S, A.frame, A.W, A.frame.idem
    sides = np.stack([W[:, E], W[E].transpose(1, 0, 2)], axis=2)  # [s, e, side, x]
    bad = []
    for s, e, side, x in zip(*np.nonzero((sides > 0) | (sides == NOT_ANGLE))):
        u, v = (s, E[e]) if side == 0 else (E[e], s)
        bad.append((S.label(u), S.label(v), F.points[x]))
    return not bad, bad


def gauge_transform(A: TwistedAction, chi) -> TwistedAction:
    """Rescale the implicit unitary family by chi:
    omega'(s, t)(y) = chi_s(y) chi_t(theta_s^{-1} y) conj(chi_st(y)) omega(s, t)(y).

    chi is (N, C), C[s, x] the exponent mod N of chi_s at the frame's point
    x, OUTSIDE where it has no value; it must have one on U(ss*) and be one
    on idempotents.  The result holds exponent arrays.  The slots read
    are those of the frame's slot table when omega's carriers are the
    frame's, as they are for every action that passes the structure
    family; other carriers get a table of their own slots.
    """
    S, F, W = A.S, A.frame, A.W.reshape(-1)
    Nc, C = chi
    if (bad := (C[F.idem] > 0).any(axis=1)).any():
        raise GaugeNotUnitAtIdempotent(S.label(F.idem[first_true(bad)[0]]))
    if (W == NOT_ANGLE).any():
        s, t, x = first_true(A.W == NOT_ANGLE)
        raise A._bad_value(s, t, F.points[x], "is not an angle")
    N = lcm(A.N, Nc)
    C = widen(C, Nc, N).reshape(-1)
    inside = W >= 0
    live = np.array_equal(inside, F.fib_of_product.reshape(-1))
    at, *reads = F.slots if live else F.slot_table(np.flatnonzero(inside))
    if (undefined := reads[1] < 0).any():  # theta_s^-1 undefined at y, as a partial bijection raises
        raise KeyError(F.points[at[first_true(undefined)[0]] % F.m])
    cs, ct, cst = gauge = [C.take(i) for i in reads]
    for i, vals in zip(reads, gauge):
        if (lost := vals < 0).any():
            u, x = divmod(int(i[first_true(lost)[0]]), F.m)
            raise ActionError(f"gauge for {S.label(u)} undefined at {F.points[x]}")
    moved = mod(cs + ct - cst + widen(W.take(at), A.N, N), N)
    out = np.full(W.size, OUTSIDE, dtype=moved.dtype)
    out[at] = moved
    return TwistedAction.from_exponents(F, N, out.reshape(A.W.shape))


# ---------------------------------------------------------------------------
# germ groupoid

class GermGroupoid:
    """Germs [t, x] of a twisted action: the pairs (t, x), x in U(t*t),
    modulo [s, x] = [t, x] for s <= t.  With e_x the product of the
    idempotents whose carriers hold x, (s, x) and (t, x) are one germ
    exactly when s e_x = t e_x, and m = t e_x is its least member.

    The state is arrays over elements and point indices: of[t, x], the germ
    of a pair (-1 off the pairs), numbered by first pair, t first, and
    K[t, x], its coordinate; per germ, reps, src_i and rng_i: the canonical
    representative (r, x), the first pair with r idempotent or else the
    first pair, and theta_r(x).  As conj(omega(t, s*s)) at theta_s(x) turns
    s- into t-coordinates, K[t, x] (t- into r-coordinates) is omega(t, m*m)
    conj(omega(r, m*m)) at theta_m(x), an exponent mod A.N.  An edge s < t
    whose scalar disagrees with K is a "transition" violation; a needed
    scalar that is not an angle raises ActionError.  [s, y][t, x] = [st, x]
    when y = theta_t(x); `table` holds every product.
    """

    def __init__(self, A: TwistedAction):
        F, W, N = A.frame, A.W, A.N
        T, ar = F.T, np.arange(F.n)
        ex = np.full(F.m, -1, dtype=np.intp)
        for e in F.idem.tolist():
            ex = np.where(F.U[e], np.where(ex < 0, e, T[e, ex]), ex)
        dom = F.U[T[F.inv, ar]]
        t, x = index_pairs(dom)
        m = T[t, ex[x]]
        _, first, cls = np.unique(m * F.m + x, return_index=True, return_inverse=True)
        g = np.argsort(np.argsort(first))[cls.reshape(-1)]  # classes ranked by first pair
        by_germ = np.lexsort((T[t, t] != t, g))  # idempotents first, then pair order
        rep = by_germ[np.unique(g[by_germ], return_index=True)[1]]
        self.A, self.N, self.reps, self.src_i = A, N, t[rep], x[rep]
        self.rng_i = F.th[self.reps, self.src_i]
        self.of = np.full((F.n, F.m), -1, dtype=np.intp)
        self.of[t, x] = g

        lo, hi = index_pairs(F.leq & (ar[:, None] != ar))
        i, xe = index_pairs(dom[lo] & dom[hi])  # the edges lo[i] < hi[i] at xe
        s, u = lo[i], hi[i]
        e, y = T[F.inv[s], s], F.th[s, xe]
        k = W[u, e, y]
        if (k < 0).any():
            j = first_true(k < 0)[0]
            raise A._bad_value(u[j], e[j], F.points[y[j]], "is not an angle")
        mm, y, r = T[F.inv[m], m], F.th[m, x], self.reps[g]  # (m, m) is no edge: its factor is one
        self.K = np.zeros((F.n, F.m), dtype=W.dtype)
        self.K[t, x] = mod(np.where(t == m, 0, W[t, mm, y]) - np.where(r == m, 0, W[r, mm, y]), N)
        bad = mod(self.K[s, xe] + k - self.K[u, xe], N) != 0
        self.conflicts = [("transition", (s, t, F.points[x])) for s, t, x in
                          zip(s[bad].tolist(), u[bad].tolist(), xe[bad].tolist())]

    @property
    def arrow_count(self) -> int:
        return len(self.reps)

    def germ(self, t: int, x) -> int:
        """The germ of the pair (t, x); KeyError if it is no pair."""
        if (g := int(self.of[t, self.A.frame.index[x]])) < 0:
            raise KeyError((t, x))
        return g

    def coord(self, t: int, x) -> Fraction:
        """The turn of the scalar turning t-coordinates at x into those of
        the canonical representative of the germ [t, x]."""
        self.germ(t, x)
        return Fraction(int(self.K[t, self.A.frame.index[x]]), self.N)

    def src(self, g: int):
        return self.A.frame.points[self.src_i[g]]

    def rng(self, g: int):
        return self.A.frame.points[self.rng_i[g]]

    def rep(self, g: int):
        return int(self.reps[g]), self.src(g)

    def is_unit(self, g: int) -> bool:
        return self.A.S.is_idempotent(int(self.reps[g]))

    def compose(self, g: int, h: int) -> int:
        if self.rng_i[h] != self.src_i[g]:
            raise ActionError("germs not composable")
        return int(self.table[g, h])

    def inverse(self, g: int) -> int:
        return int(self.of[self.A.frame.inv[self.reps[g]], self.rng_i[g]])

    @cached_property
    def table(self) -> np.ndarray:
        """[g, h]: the germ gh, -1 where rng(h) is not src(g)."""
        r, F = self.reps, self.A.frame
        return np.where(self.rng_i == self.src_i[:, None], self.of[F.T[r[:, None], r], self.src_i], -1)

    def verify(self):
        """The laws of the quotient groupoid (inverses and composition of
        endpoints) plus the transition conflicts.  It does not check the
        action's axioms: a non-action, such as one with an omega value
        changed, can pass it.  Run verify_twisted_action first, as the
        CLI's action germs does."""
        F, r, src, rng = self.A.frame, self.reps, self.src_i, self.rng_i
        inv = self.of[F.inv[r], rng]
        unit = self.table[np.arange(len(r)), inv]
        ends = (inv < 0) | (src[inv] != rng) | (rng[inv] != src)
        law = (unit < 0) | (F.T[r[unit], r[unit]] != r[unit]) | (src[unit] != rng)
        bad = [(tag, g) for g in np.flatnonzero(ends | law).tolist()
               for tag, v in (("inverse-endpoints", ends), ("inverse-law", law)) if v[g]]
        gh = self.table
        wrong = (gh >= 0) & ((src[gh] != src) | (rng[gh] != rng[:, None]))
        bad += [("composition-endpoints", p) for p in zip(*(a.tolist() for a in np.nonzero(wrong)))]
        bad += self.conflicts
        return not bad, bad


germ_groupoid = GermGroupoid


def germ_map_check(G: GermGroupoid, image, src, rng, mul):
    """Whether the map sending each pair (t, x) of G to the arrow
    image[t, x] is well defined on germs, bijective onto the arrows of a
    groupoid, and preserves endpoints and composition.  The groupoid is
    its arrays: src and rng, its arrows' endpoints as indices of G's
    points, and mul, [a, b] the arrow ab or -1.  Returns (True, mapping
    from germs to arrows) or (False, counterexample)."""
    to = image[G.reps, G.src_i]  # each representative's image
    t, x = np.nonzero(G.of >= 0)
    if (split := image[t, x] != to[G.of[t, x]]).any():
        g = int(G.of[t, x][split].min())
        return False, ("not-well-defined", g, sorted(set(image[G.of == g].tolist())))
    if len(np.unique(to)) != G.arrow_count or G.arrow_count != len(src):
        return False, ("arrow-count", G.arrow_count, len(src))
    if (ends := (src[to] != G.src_i) | (rng[to] != G.rng_i)).any():
        return False, ("endpoints", first_true(ends)[0])
    if (wrong := (G.table >= 0) & (to[G.table] != mul[to[:, None], to])).any():
        return False, ("composition", first_true(wrong))
    return True, dict(enumerate(to.tolist()))


def siebenize(A: TwistedAction):
    """A gauge chi, trivial on idempotents, whose transform satisfies the
    Sieben condition: per germ, adopt the canonical representative's
    coordinate and convert every other to it: C[t, theta_t(x)] is the
    inverse of the germ coordinate G.K[t, x]."""
    G, F = GermGroupoid(A), A.frame
    t, x = index_pairs(G.of >= 0)
    C = np.full((F.n, F.m), OUTSIDE, dtype=G.K.dtype)
    C[t, F.th[t, x]] = mod(-G.K[t, x], A.N)
    chi = (A.N, C)
    return chi, gauge_transform(A, chi)
