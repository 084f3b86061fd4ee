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
checks are gathers and comparisons on these arrays, with zero tolerance.
The omega mapping is a read-only view.  A gauge chi is exponents too: (N,
C), C[s, x] the exponent of chi_s at the frame's point x, OUTSIDE off the
fiber carriers, as random_gauge and siebenize make it and gauge_transform
reads it.

Every identity checked is a sum of at most four exponents, so every
exponent array is held, where it is made, in the narrowest signed width
that holds such a sum and mod's floor of it times N, 4 N <= 2**(bits - 1):

    N <= 2**5    int8        N <= 2**29   int32
    N <= 2**13   int16       N <= 2**61   int64

and Python integers (object arrays) beyond.  Under NumPy 2 (NEP 50) a sum
of narrow arrays, or of one and a Python integer, wraps silently, so a
path that could exceed four terms must widen first.  None does: the
widest sums have three positive terms (gauge_transform, Lookup.scaled and
bundle._extract), and the widest difference, in Lookup's star laws, four
negative ones.  Positions into the arrays stay intp.

A Frame compiles, once, all that the checks read of it alone.  Its slot
table holds the flat positions of the live omega slots (s, t, y), y in
U(st (st)*), row-major, and of chi_s(y), chi_t(theta_s^-1 y) and
chi_st(y) in an n x m gauge: gauge_transform, and so siebenize, is three
takes, a sum mod N and a scatter, and build_bundle's product rows are
these slots.  Its cocycle table holds the flat positions in W of the four
factors of each live instance (r, s, t, x), x in U(r*r) & U(st (st)*).
Frame.structure, Frame.axioms and Frame.consequences hold the theta-only
verdicts and, for the other omega identities, the pairs of W each factor
reads: checking an omega is a gather, a sum and mod per table, and only
violations are decoded to labels.  Tables are kept when their scan fits
in one CHUNK, and are read-only, so none goes stale.  mod is a floor
division and a product, which numpy runs faster than its remainder.

The germ groupoid, compiled with the frame (Frame.germs), is index arithmetic
in closed form, and with its twist a groupoid.FiniteGroupoid and TwoCocycle.
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
# exponent widths: int8 while N <= 2**5, int16 while N <= 2**13, int32
# while N <= 2**29 and int64 while N <= 2**61 = INT64_MODULUS, each the
# widest modulus whose width holds every sum of four exponents mod N, and
# mod's floor times N of one, as 4 N <= 2**(bits - 1); past INT64_MODULUS
# exponents are Python integers in object arrays
WIDTHS = ((2 ** 5, np.int8), (2 ** 13, np.int16), (2 ** 29, np.int32), (2 ** 61, np.int64))
INT64_MODULUS = WIDTHS[-1][0]
# exponent codes: outside the carrier of omega(s, t), or no angle there
OUTSIDE, NOT_ANGLE = -1, -2


class ActionError(ValueError):
    pass


class GaugeNotUnitAtIdempotent(ActionError):
    pass


class CarrierMismatch(ValueError):
    pass


def _kept(build):
    """A Frame property: build(frame), made read-only, and kept when its
    identity tables (see _broken) scan at most CHUNK entries a factor."""
    def get(frame):
        if (got := frame.__dict__.get(build.__name__)) is None:
            got = build(frame)
            for at, need, _, parts in got[2:]:
                _freeze(at, *(a for _, labels in parts for a in labels), *(() if need is None else (need,)))
            if sum(at.shape[1] for at, *_ in got[2:]) * frame.m <= CHUNK:
                frame.__dict__[build.__name__] = got
        return got
    return property(get, doc=build.__doc__)


class Frame:
    """The semigroup, points, carriers and theta of an action as given (S, X,
    sets, maps) and as arrays; an action and its gauge transforms share one.

    Points are indexed X first, then any other point the data names.
    theta[s] is a dict {x: theta_s(x)}, which must be injective.
    U and fib are n x m masks of U(s) and of the fiber carrier U(ss*);
    th and thi index arrays of theta_s and its inverse, -1 where undefined.
    The tables (thi, fib_of_product, slots, pairs, cocycle, structure,
    axioms, consequences, germs, germ_pair) are built once, when first
    read, read-only; cocycle is None when its scan is more than CHUNK
    entries, so a kept one holds at most 4 CHUNK intp.
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
        return _freeze(self.U[self.T[self.inv, ar]].ravel().nonzero()[0])

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
        q = self.fib_of_product.reshape(nn, m).T.ravel().nonzero()[0]  # x n^2 + s n + t
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

    def bad_value(self, s, t, y, what="undefined") -> ActionError:
        return ActionError(f"omega({self.S.label(s)},{self.S.label(t)}) {what} at {y}")

    @cached_property
    def structure(self) -> tuple:
        """The frame half of the structure family, in order: carrier-cover,
        carrier-mismatch and theta-endpoints by element, theta-not-identity."""
        label, ar, m, out = self.S.label, np.arange(self.n), self.m, []
        covered = self.U[self.idem].any(axis=0)
        if (covered != self.in_X).any():
            out.append(("carrier-cover", sorted(set(self.X).difference(
                self.points[i] for i in covered.nonzero()[0]))))
        mismatch = (self.U != self.fib).any(axis=1)
        rng = np.zeros((self.n, m + 1), dtype=bool)
        rng[ar[:, None], self.th] = True
        endpoints = (((self.th >= 0) != self.U[self.T[self.inv, ar]]) | (rng[:, :m] != self.fib)).any(axis=1)
        for s in (mismatch | endpoints).nonzero()[0]:
            if mismatch[s]:
                out.append(("carrier-mismatch", label(s)))
            if endpoints[s]:
                out.append(("theta-endpoints", label(s)))
        identity = np.where(self.U[self.idem], np.arange(m), -1)
        return tuple(out + [("theta-not-identity", label(self.idem[i]))
                            for i in (self.th[self.idem] != identity).any(axis=1).nonzero()[0]])

    @_kept
    def axioms(self) -> tuple:
        """The composition violations, the error idempotent-splitting raises
        (or None) and one table of the unit and idempotent-splitting
        families, read once W is an exponent exactly on fib_of_product: a
        unit omega(s, t) = 1 is then omega + omega - omega = 0 there."""
        n, m, T, E, inv, ar = self.n, self.m, self.T, self.idem, self.inv, np.arange(self.n)
        # (i) theta_r . theta_s = theta_rs, with equal (maximal) domains; an
        # undefined index -1 reads the padding column, which is undefined too
        th = np.concatenate([self.th, np.full((n, 1), -1, dtype=np.intp)], axis=1)
        composed = th[ar[:, None, None], th[None, :, :]]
        composition = tuple(("composition", (self.S.label(r), self.S.label(s)))
                            for r, s in zip(*(composed != th[T]).any(axis=2).nonzero()))
        # (iii) omega(e,f) = 1 and omega(r, r*r) = omega(rr*, r) = 1
        rr = np.array([ar * n + T[inv, ar], T[ar, inv] * n + ar]).T.ravel()  # (r, r*r), (rr*, r)
        st = np.concatenate([(E[:, None] * n + E).ravel(), rr])
        # (iv) omega(s*,e)(x) omega(s*e,s)(x) = omega(s*,s)(x) on U(s*es)
        s, e = np.divmod(np.arange(n * len(E)), len(E))
        e, ss = E.take(e), inv.take(s)
        se = T[ss, e]
        at = np.concatenate([np.broadcast_to(st, (3, len(st))), [ss * n + e, se * n + s, ss * n + s]], axis=1)
        need = self.fib.take(T.take(at[1]), axis=0)
        parts = ("unit", np.divmod(st, n)), ("idempotent-splitting", (s, e))
        error = _lost(self, at, ~self.fib_of_product.reshape(n * n, m).take(at, axis=0) & need)
        return composition, error, (at, need, (1, 1, -1), parts)

    @_kept
    def consequences(self) -> tuple:
        """The theta-only violations, the KeyError of the first undefined
        theta_s that an identity reads (or None), and the tables of the
        flip, dominating-unit, and star-restriction and chain families."""
        n, m, T, E, inv, ar = self.n, self.m, self.T, self.idem, self.inv, np.arange(self.n)
        label, y = self.S.label, np.arange(m)[None, :]
        lo, hi = index_pairs(self.leq)  # the order pairs lo <= hi
        # theta_{s*} is the inverse partial bijection
        out = [("inverse-map", label(s)) for s in (self.th[inv] != self.thi).any(axis=1).nonzero()[0]]
        # image identity: theta_r(U(r*r) & U(s)) = U(rs), read at y as U(s) at
        # x = theta_r^-1(y) when x is in U(r*r), with the points as the outer
        # axis; the padding row m stands for an undefined or excluded x
        dom, error = self.U[T[inv, ar]], None
        if (dom & (self.th < 0)).any():
            error = _theta_error(self, dom[:, None, :] & self.U[None], self.th[:, None, :], y)
        x = np.where(dom[ar[:, None], self.thi] & (self.thi >= 0), self.thi, m)
        held = np.concatenate([self.U.T, np.zeros((1, n), dtype=bool)]).take(x.T, axis=0)  # [y, r, s]
        image = (held != np.ascontiguousarray(self.fib.T).take(T, axis=1)).any(axis=0)
        out += [("image", (label(r), label(s))) for r, s in zip(*index_pairs(image))]
        # carrier monotonicity, over the order pairs, and intersection, with
        # the carriers packed eight points to a byte, the bytes outermost
        U8 = np.packbits(self.U, axis=1).T
        monotone = np.zeros((n, n), dtype=bool)
        monotone[lo, hi] = (U8[:, lo] & ~U8[:, hi]).any(axis=0)
        P = T[ar, inv]
        meet = U8.take(T.take(P, axis=0).take(P, axis=1), axis=1)
        intersection = ((U8[:, :, None] & U8[:, None, :]) != meet).any(axis=0)
        for r, s in zip(*index_pairs(monotone | intersection)):
            if monotone[r, s]:
                out.append(("monotone", (label(r), label(s))))
            if intersection[r, s]:
                out.append(("intersection", (label(r), label(s))))
        # restriction: theta_t agrees with theta_s on U(s*s) when s <= t
        kept = np.where(dom[lo], self.th[hi], -1)
        out += [("restriction", (label(lo[i]), label(hi[i])))
                for i in (kept != self.th[lo]).any(axis=1).nonzero()[0]]
        # omega(s*,s) pulled through theta_s equals omega(s,s*)
        need = self.fib[T[ar, inv]]
        error = error or _theta_error(self, need, self.thi, y)
        flip = np.array([((inv * n + ar) * m)[:, None] + np.maximum(self.thi, 0),  # at theta_s^-1 y
                         ((ar * n + inv) * m)[:, None] + np.arange(m)]), need, (1, -1), [("flip", (ar,))]
        # omega(r,e) = 1 whenever e >= r*r, at every point
        r, e = index_pairs(self.leq[T[inv, ar]][:, E])
        st = r * n + E.take(e)
        dominating = st[None], None, None, [("dominating-unit", np.divmod(st, n))]
        # omega(t*,s) = omega(t*,ss*) omega(s*,s) pointwise for s <= t, and the
        # transition chain omega(t,r*r) = omega(t,s*s) omega(s,r*r) on U(r), r<=s<=t
        ts, si = inv[hi], inv[lo]
        j, t = index_pairs(self.leq.take(hi, axis=0))
        r, s = lo[j], hi[j]
        rr = T[inv[r], r]
        at = np.concatenate([[ts * n + lo, ts * n + T[lo, si], si * n + lo],
                             [t * n + rr, t * n + T[inv[s], s], s * n + rr]], axis=1)
        parts = [("star-restriction", (lo, hi)), ("chain", (r, s, t))]
        star_chain = at, self.fib.take(T.take(at[0]), axis=0), (1, -1, -1), parts
        return tuple(out), error, flip, dominating, star_chain

    @cached_property
    def germs(self) -> tuple:
        """The theta half of every GermGroupoid over the frame: of, reps,
        src_i, rng_i and table, then flat positions (an undefined theta the
        last point, as index -1 reads it) of each pair (t, x) and (t,
        theta_t(x)) in an n x m grid, of its coordinate's omega(t, m*m) and
        omega(r, m*m) at theta_m(x) in W, and whether each is read; of each
        edge's omega(u, s*s) at theta_s(x) in W and (s, x), (u, x) in K; and
        g, h and the twist's omega(r, t) in W and (rt, x) in K."""
        n, m, T, E, inv, ar = self.n, self.m, self.T, self.idem, self.inv, np.arange(self.n)
        th = self.th % max(m, 1)
        # e_x, the meet of the holders of x: the lower bound with most below it
        below = self.leq[E[:, None], E]  # [e, f]: e <= f
        lower = ~(~below[:, :, None] & self.U[E][None]).any(axis=1)  # [e, x]
        ex = E[np.where(lower, below.sum(axis=0)[:, None], -1).argmax(axis=0)]
        dom = self.U[T[inv, ar]]
        tx = dom.ravel().nonzero()[0]
        t, x = np.divmod(tx, max(m, 1))
        least = T[t, ex[x]]
        _, first, cls = np.unique(least * m + x, return_index=True, return_inverse=True)
        g = np.argsort(np.argsort(first))[cls.reshape(-1)]  # classes ranked by first pair
        by_germ = np.lexsort((T[t, t] != t, g))  # idempotents first, then pair order
        rep = by_germ[np.unique(g[by_germ], return_index=True)[1]]
        reps, src_i = t[rep], x[rep]
        rng_i = self.th[reps, src_i]
        of = np.full((n, m), -1, dtype=np.intp)
        of.reshape(-1)[tx] = g
        table = np.where(rng_i == src_i[:, None], of[T[reps[:, None], reps], src_i], -1)
        tr = np.array([t, reps[g]])  # each pair's t and its germ's r
        coords, live = (tr * n + T[inv[least], least]) * m + th[least, x], tr != least
        lo, hi = index_pairs(self.leq & (ar[:, None] != ar))
        i, xe = index_pairs(dom[lo] & dom[hi])  # the edges lo[i] < hi[i] at xe
        s, u = lo[i], hi[i]
        edges = (u * n + T[inv[s], s]) * m + th[s, xe], s * m + xe, u * m + xe
        g, h = index_pairs(table >= 0)
        r, rt = reps[g], T[reps[g], reps[h]]
        twist = g, h, (r * n + reps[h]) * m + th[rt, src_i[h]], rt * m + src_i[h]
        pairs = tx, t * m + th[t, x]
        _freeze(of, reps, src_i, rng_i, table, coords, live, *pairs, *edges, *twist)
        return (of, reps, src_i, rng_i, table), pairs, coords, live, edges, twist

    @cached_property
    def germ_pair(self) -> tuple:
        """The germ groupoid as a groupoid.FiniteGroupoid over the points,
        numbered as the frame numbers them, and the number of each pair of
        germs with a product (Frame.germs) among its composable pairs."""
        from fellsem.groupoid import FiniteGroupoid
        (_, _, src, rng, table), *_, (g, h, _, _) = self.germs
        G = FiniteGroupoid(self.points, *([self.points[i] for i in e.tolist()] for e in (src, rng)),
                           zip(zip(g.tolist(), h.tolist()), table[g, h].tolist()))
        return G, _freeze(G.pair_index[g, h])

    @cached_property
    def germ_laws(self) -> str | None:
        """verify_groupoid's message on germ_pair's groupoid, or None."""
        from fellsem.groupoid import GroupoidError, verify_groupoid
        try:
            verify_groupoid(self.germ_pair[0])
        except GroupoidError as exc:
            return str(exc)


def _freeze(*arrays):
    """Make the arrays read-only; the last one."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[-1]


def _exponent_dtype(N: int):
    """The narrowest signed dtype of WIDTHS that holds exponents mod N, or
    object past INT64_MODULUS."""
    return next((dtype for bound, dtype in WIDTHS if N <= bound), object)


def held(K, N: int) -> np.ndarray:
    """Exponents mod N and codes in _exponent_dtype(N): K itself when it is
    held so already.  A cast that would change an entry, which no builder
    makes, raises ValueError instead of wrapping."""
    K, dtype = np.asarray(K), _exponent_dtype(N)
    if K.dtype == dtype:
        return K
    out = K.astype(dtype)
    if dtype is not object and (out != K).any():
        raise ValueError(f"an exponent mod {N} is out of range")
    return out


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
        self._encode(Frame(S, X, U, theta, points), keys, points,
                     [v if isinstance(v, complex) else as_frac(v) for v in vals], range(len(vals)))

    def _encode(self, frame, keys, points, values, codes):
        """Hold omega from its entries: entry i is omega(s, t) at points[i],
        keys[i] = s n + t, with the value values[codes[i]], a turn or, where
        it is not an angle, a complex number.  Each value is encoded once."""
        n, m = frame.n, frame.m
        N, E = exponents([None if isinstance(v, complex) else v for v in values])
        codes = np.asarray(codes, dtype=np.intp)
        K = E.take(codes)
        at = np.array(keys, dtype=np.intp) * m + np.array([frame.index[x] for x in points], dtype=np.intp)
        W, V = np.full(n * n * m, OUTSIDE, dtype=K.dtype), None
        W[at] = K
        if (K == NOT_ANGLE).any():
            V = np.zeros(len(W), dtype=complex)
            V[at] = np.array([v if isinstance(v, complex) else 0j for v in values], dtype=complex).take(codes)
            V = V.reshape(n, n, m)
        self._hold(frame, N, W.reshape(n, n, m), V)

    @classmethod
    def from_exponents(cls, frame: Frame, N: int, W, V=None) -> "TwistedAction":
        """The action of frame's S, X, U and theta with the omega of W and V."""
        A = cls.__new__(cls)
        A._hold(frame, N, W, V)
        return A

    def _hold(self, frame, N, W, V):
        W = held(W, N)
        self.S, self.X, self.U, self.theta = frame.S, list(frame.X), dict(frame.sets), dict(frame.maps)
        self.frame, self.N, self.W, self.V = frame, N, W, V
        for a in (W,) if V is None else (W, V):
            a.flags.writeable = False

    @cached_property
    def omega(self) -> OmegaView:
        return OmegaView(self)

    def structural_violations(self):
        """The structure family: Frame.structure, then omega's carriers and
        values, which hold when W is an exponent exactly on fib_of_product."""
        F, W, label = self.frame, self.W, self.S.label
        out = list(F.structure)
        if (np.minimum(W, 0) + 1 == F.fib_of_product).all():
            return out
        carrier = (W != OUTSIDE) != F.fib_of_product
        not_unit = W == NOT_ANGLE
        wrong = carrier.any(axis=2)
        for s, t in zip(*np.nonzero(wrong | not_unit.any(axis=2))):
            if wrong[s, t]:
                out.append(("omega-carrier", (label(s), label(t))))
            out += [("omega-not-unit", (label(s), label(t), F.points[x]))
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
        n, labels = S.n, S.labels
        index = {lab: i for i, lab in enumerate(labels)}
        try:
            U = {index[lab]: frozenset(pts) for lab, pts in data["U"].items()}
            theta = {index[lab]: m for lab, m in data["theta"].items()}
        except KeyError as exc:  # the ValueError labels.index raises
            raise ValueError(f"{exc.args[0]!r} is not in list") from None
        # the key of each (s, t); split_labels cuts the keys instead when two
        # pairs join to one key
        joined = {f"{a},{b}": (s, t) for s, a in enumerate(labels) for t, b in enumerate(labels)}
        if len(joined) < n * n or not all(isinstance(a, str) for a in labels):
            joined = {}
        turns_of, code = [], {}  # each text is parsed once, to its code

        def parse(v):
            code[v] = len(turns_of)
            turns_of.append(as_frac(v))
            return code[v]

        keys, points, codes, given = [], [], [], set()
        for key, vals in data["omega"].items():
            s, t = joined.get(key) or split_labels(key, index, 2)
            got = [code[v] if v in code else parse(v) for v in vals.values()]
            st = S.mul(s, t)
            carrier = U[S.mul(st, S.inv[st])]
            if not vals.keys() <= carrier:
                raise CarrierMismatch(f"value at {next(x for x in vals if x not in carrier)} outside carrier")
            # omega(s, t) is carried by U(st (st)*); a point it leaves out is
            # zero, the last code
            missing = carrier.difference(vals)
            keys += [s * n + t] * len(carrier)
            points += [*vals, *missing]
            codes += got + [-1] * len(missing)
            given.add(s * n + t)
        if len(given) < n * n:
            raise KeyError(divmod(min(set(range(n * n)) - given), n))
        A = cls.__new__(cls)
        A._encode(Frame(S, X, U, theta, points), keys, points, turns_of + [0j], codes)
        return A


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

def _lost(F: Frame, at, lost, parts=()) -> ActionError | None:
    """The error omega_at raises where lost[i, j, ...] is first True, family
    by family (parts), then factor by factor; at holds the flat positions
    in W of lost's entries or, one axis shorter, their pairs (see _broken).
    None if it is nowhere."""
    if not lost.any():
        return None
    where = lost.nonzero()
    ends = np.cumsum([len(labels[0]) for _, labels in parts], dtype=np.intp)  # of each family's instances
    k = np.lexsort((*where[::-1], np.searchsorted(ends, where[1], side="right")))[0]
    i = tuple(int(v[k]) for v in where)
    u, x = divmod(int(at[i]), F.m) if at.ndim == lost.ndim else (int(at[i[:-1]]), i[-1])
    return F.bad_value(*divmod(u, F.n), F.points[x])


def _theta_error(F: Frame, need, image, x) -> KeyError | None:
    """The KeyError a partial bijection raises at the first needed point
    x (broadcast) whose image index is undefined, or None."""
    if (lost := need & (image < 0)).any():
        return KeyError(F.points[int(np.broadcast_to(x, lost.shape)[first_true(lost)])])


def _broken(A: TwistedAction, table, check=False) -> list:
    """The violations of an identity table (at, need, signs, parts): factor
    i of instance j reads omega(s, t), at[i, j] = s n + t, at every point x,
    or W at at[i, j, x]; need[j, x] says whether the instance holds at x;
    parts are the families (tag, labels) whose instances follow each other,
    labels the elements they name.  With signs, (j, x) is broken where need
    holds and the exponents times signs (+1 first, at most four) do not sum
    to 0 mod N; without, where the one factor is neither one nor OUTSIDE.
    With check, a needed factor that holds no angle raises first."""
    (at, need, signs, parts), F, label = table, A.frame, A.S.label
    vals = A.W.reshape(-1)[at] if at.ndim == 3 else A.W.reshape(F.n * F.n, F.m).take(at, axis=0)
    if check and (lost := (vals < 0) & need).any():
        raise _lost(F, at, lost, parts)
    if signs is None:
        bad = ((vals > 0) | (vals == NOT_ANGLE)).ravel().nonzero()[0]
    else:
        total = vals[0]
        for sign, v in zip(signs[1:], vals[1:]):
            total = total + v if sign > 0 else total - v
        bad = (mod(total, A.N) * need).ravel().nonzero()[0]
    out, start, (j, x) = [], 0, np.divmod(bad, F.m)
    for tag, labels in parts if bad.size else ():
        end = start + len(labels[0])
        cut = slice(*np.searchsorted(j, (start, end)))
        out += [(tag, (*map(label, els), F.points[y]))
                for *els, y in zip(*(a.take(j[cut] - start).tolist() for a in labels), x[cut].tolist())]
        start = end
    return out


def verify_twisted_action(A: TwistedAction):
    """Check the four defining axioms pointwise and exactly, as identities
    between exponents mod N.

    Returns (ok, violations).  Axiom tags: "structure", "composition",
    "cocycle", "unit", "idempotent-splitting".

    Once the structure family passes, W is an exponent exactly on
    F.fib_of_product, so whether a needed factor is undefined, and every
    such raise, is a frame fact, compiled with Frame.axioms.

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

    The direct scan reads the frame's cocycle table (Frame.cocycle_table)
    when its scan is at most CHUNK entries (Frame.cocycle); a longer one
    builds a table per chunk of pairs (r, x), with the same first failure.
    """
    ok, violations = verify_structure(A)
    if not ok:
        return ok, violations
    F, N, label = A.frame, A.N, A.S.label
    composition, error, units = F.axioms
    violations, composes, n, points = list(composition), not composition, F.n, F.points

    # (ii) omega(s,t)(x) omega(r,st)(y) = omega(r,s)(y) omega(rs,t)(y)
    # where x runs over U(r*r) & U(st) and y = theta_r(x): the first factor
    # is evaluated before the r-action moves the point, the rest after.
    # With the structure checked, omega(s, t) is carried by U(st), so the
    # live instances of the frame's cocycle table are those needed; when
    # the maps compose, every other factor is defined where it is needed.
    tables = None if F.cocycle is None else (F.cocycle,)
    if tables is None and composes:
        from fellsem.bundle import build_bundle
        L = build_bundle(A).lookup()
        if not L.nonassociative(0, L.middle).size:
            tables = ()
    if tables is None:
        pairs, step = F.pairs, max(1, CHUNK // (n * n))
        tables = (F.cocycle_table(pairs[c:c + step]) for c in range(0, len(pairs), step))
    Wf, found = A.W.reshape(-1), []
    for table in tables:
        vals = Wf[table]  # take would copy the read-only table first
        if not composes and (lost := _lost(F, table[1:], vals[1:] < 0)):
            raise lost
        if (bad := mod(vals[0] + vals[1] - vals[2] - vals[3], N).nonzero()[0]).size:
            found.append(table[:2, bad])
    if found:
        st_x, r_st_y = np.concatenate(found, axis=1)
        nm = n * F.m
        for key in np.sort(r_st_y // nm * (n * nm) + st_x).tolist():  # (r, s, t, x) in order
            r, (s, t), x = key // (n * nm), divmod(key // F.m % n ** 2, n), key % F.m
            violations.append(("cocycle", (label(r), label(s), label(t), points[x])))

    # (iii) unit and (iv) idempotent-splitting; a frame's error, raised anew
    if error:
        raise type(error)(*error.args)
    violations += _broken(A, units)
    return not violations, violations


def verify_consequences(A: TwistedAction):
    """Derived identities that every valid action must satisfy.

    A violation here, on data passing verify_twisted_action, indicates an
    implementation bug rather than bad input.  Returns (ok, violations),
    from the frame's tables (Frame.consequences).  The structure family is
    not run: a needed value that holds no angle raises ActionError, and a
    needed theta_s that is undefined KeyError.
    """
    out, error, flip, dominating, star_chain = A.frame.consequences
    if error:
        raise type(error)(*error.args)
    out = [*out, *_broken(A, flip, True), *_broken(A, dominating), *_broken(A, star_chain, True)]
    return not out, out


def verify_structure(A: TwistedAction):
    """(ok, violations) of the structure family, as verify_twisted_action reports it."""
    violations = [("structure", v) for v in A.structural_violations()]
    return not violations, violations


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
        raise F.bad_value(s, t, F.points[x], "is not an angle")
    N = lcm(A.N, Nc)
    C = held(widen(C, Nc, N), N).reshape(-1)
    inside = W >= 0
    live = np.array_equal(inside, F.fib_of_product.reshape(-1))
    at, *reads = F.slots if live else F.slot_table(np.flatnonzero(inside))
    if (undefined := reads[1] < 0).any():  # theta_s^-1 undefined at y, as a partial bijection raises
        raise KeyError(F.points[at[first_true(undefined)[0]] % F.m])
    cs, ct, cst = gauge = [C[i] for i in reads]  # take would copy the read-only slots first
    for i, vals in zip(reads, gauge):
        if (lost := vals < 0).any():
            u, x = divmod(int(i[first_true(lost)[0]]), F.m)
            raise ActionError(f"gauge for {S.label(u)} undefined at {F.points[x]}")
    moved = mod(cs + ct - cst + widen(W[at], A.N, N), N)
    out = np.full(W.size, OUTSIDE, dtype=moved.dtype)
    out[at] = moved
    return TwistedAction.from_exponents(F, N, out.reshape(A.W.shape))


# ---------------------------------------------------------------------------
# germ groupoid

class GermGroupoid:
    """Germs [t, x] of a twisted action: the pairs (t, x), x in U(t*t),
    modulo [s, x] = [t, x] for s <= t.  With e_x the meet (the product) of
    the idempotents whose carriers hold x, (s, x) and (t, x) are one germ
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
    when y = theta_t(x); `table` holds every product and `twist` its scalar.

    All that reads theta alone is the frame's, compiled once (Frame.germs);
    an omega's part is a gather and mod of W each for K, conflicts and twist.
    """

    def __init__(self, A: TwistedAction):
        self.A, self.N, F, W = A, A.N, A.frame, A.W.reshape(-1)
        (self.of, self.reps, self.src_i, self.rng_i, self.table), (tx, _), coords, live, edges, _ = F.germs
        k = _angles(F, W, edges[0])
        v = W[coords] * live  # (m, m) is no edge: its factor is one
        K = np.zeros(F.n * F.m, dtype=W.dtype)
        K[tx] = mod(v[0] - v[1], self.N)
        self.K = K.reshape(F.n, F.m)
        bad = (mod(K[edges[1]] + k - K[edges[2]], self.N) != 0).nonzero()[0]
        (s, x), t = np.divmod(edges[1][bad], F.m), edges[2][bad] // F.m
        self.conflicts = [("transition", (s, t, F.points[x]))
                          for s, t, x in zip(s.tolist(), t.tolist(), x.tolist())]

    @property
    def arrow_count(self) -> int:
        return len(self.reps)

    def germ(self, t: int, x) -> int:
        """The germ of the pair (t, x); KeyError if it is no pair."""
        if (g := int(self.of[t, self.A.frame.index[x]])) < 0:
            raise KeyError((t, x))
        return g

    @cached_property
    def twist(self):
        """g, h and the twist's exponent mod N at each pair of germs with a
        product, row-major: omega(r, t) at theta_rt(x) in canonical
        coordinates, (r, y) and (t, x) the representatives of g and h."""
        g, h, at, k = self.A.frame.germs[-1]
        return g, h, mod(_angles(self.A.frame, self.A.W.reshape(-1), at) + self.K.reshape(-1)[k], self.N)

    @cached_property
    def pair(self):
        """The frame's germ groupoid (Frame.germ_pair) and the twist as its TwoCocycle."""
        from fellsem.groupoid import TwoCocycle
        E, (G, at) = self.twist[2], self.A.frame.germ_pair
        K = np.full(len(G.pair_a), OUTSIDE, dtype=E.dtype)  # a composable pair with no product stays OUTSIDE
        K[at] = E
        return G, TwoCocycle.from_exponents(G, self.N, K)

    def verify(self):
        """verify_groupoid (Frame.germ_laws) and verify_cocycle on the pair,
        a GroupoidError as one ("groupoid", message) violation, and the
        transition conflicts.  It reads the twist, not every axiom: of the
        acceptance sweep's 1000 one-value omega mutants, which the axioms all
        reject, it fails 624.  Run verify_twisted_action first, as the CLI's
        action germs does."""
        from fellsem.groupoid import verify_cocycle
        G, tau = self.pair
        error = self.A.frame.germ_laws
        bad = verify_cocycle(G, tau)[1] if error is None else [("groupoid", error)]
        bad += self.conflicts
        return not bad, bad


def _angles(F: Frame, W, at) -> np.ndarray:
    """The flat W at the positions at; ActionError at the first that is no angle."""
    if ((w := W[at]) < 0).any():
        u, y = divmod(int(at[(w < 0).argmax()]), F.m)
        raise F.bad_value(*divmod(u, F.n), F.points[y], "is not an angle")
    return w


germ_groupoid = GermGroupoid


def germ_map_check(G: GermGroupoid, image, H):
    """Whether the map sending each pair (t, x) of G to the arrow
    image[t, x] of the groupoid.FiniteGroupoid H, whose objects are
    numbered as G's points, is well defined on germs, bijective onto H's
    arrows, and preserves endpoints and composition.  Returns (True,
    mapping from germs to arrows) or (False, counterexample)."""
    to = image[G.reps, G.src_i]  # each representative's image
    t, x = np.nonzero(G.of >= 0)
    if (split := image[t, x] != to[G.of[t, x]]).any():
        g = int(G.of[t, x][split].min())
        return False, ("not-well-defined", g, sorted(set(image[G.of == g].tolist())))
    if len(np.unique(to)) != G.arrow_count or G.arrow_count != H.m:
        return False, ("arrow-count", G.arrow_count, H.m)
    if (ends := (H.src_i[to] != G.src_i) | (H.rng_i[to] != G.rng_i)).any():
        return False, ("endpoints", first_true(ends)[0])
    if (wrong := (G.table >= 0) & (to[G.table] != H.mul_table[to[:, None], to])).any():
        return False, ("composition", first_true(wrong))
    return True, dict(enumerate(to.tolist()))


def siebenize(A: TwistedAction):
    """A gauge chi, trivial on idempotents, whose transform satisfies the
    Sieben condition: per germ, adopt the canonical representative's
    coordinate and convert every other to it: C[t, theta_t(x)] is the
    inverse of the germ coordinate G.K[t, x]."""
    G, F = GermGroupoid(A), A.frame
    tx, ty = F.germs[1]
    C = np.full(F.n * F.m, OUTSIDE, dtype=G.K.dtype)
    C[ty] = mod(-G.K.reshape(-1)[tx], A.N)
    chi = (A.N, C.reshape(F.n, F.m))
    return chi, gauge_transform(A, chi)
