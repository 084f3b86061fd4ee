"""Semi-abelian Fell bundles over finite inverse semigroups.

Every bundle modelled here is monomial: in the point-mass bases of the
fibers, the product of two basis elements, the adjoint of one and its
inclusion into a larger fiber are each a single scaled basis element.  One
type, Bundle, holds those three structure tables, with the product rows
keyed by the pair of points they multiply.  It extends products and stars
(conjugate-)linearly to CFunctions, summing the terms that meet at one
point.  Three builders fill the tables:

- build_bundle(A): the bundle of a twisted action, whose fiber over s is
  the functions on U(ss*) and whose product is twisted by omega;
- SectionBundle(G, tau, S, bisections, carriers): the sections of a
  twisted groupoid over its bisections, with optionally shrunken carriers;
- refine.RefinedBundle(base): the saturated refinement of a bundle.

An algebra is the same table with one fiber: a Bundle over the one-element
inverse semigroup whose fiber is the basis range(n) (see fellsem.algebra).

Every check on point masses compiles the tables into arrays once per call
(BundleArrays), not cached, so the tables may change in place between
checks: each fiber's points numbered in list(carrier) order, the product,
star and inclusion rows as index arrays, and every scalar as an exponent
mod N, N the lcm of the Angles' denominators (as in fellsem.action),
beside its complex value.  Bundle.verify checks the exact axioms on point
masses as gathers through these arrays, comparing Angles as exponents
with zero tolerance; verify_fell_bundle adds the families on random dense
elements, batched over every pair and sample at once.  So do
refine.verify_morphism, through both bundles, and reps.verify_representation.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from fellsem.action import CHUNK, NOT_ANGLE, TwistedAction, exponents, widen
from fellsem.angles import ONE, Angle, as_complex, scalar_conj
from fellsem.isg import InverseSemigroup
from fellsem.partial_maps import CFunction

# the point of a zero point mass: past the end of every table, so that a
# lookup made from it reads the table's zero entry
NOWHERE = 1 << 40


class BundleError(ValueError):
    pass


class NotSaturated(BundleError):
    pass


class NotSemiAbelian(BundleError):
    pass


class BadMultiplierFamily(BundleError):
    pass


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


class Bundle:
    """A monomial Fell bundle over S, given by its structure tables.

    carriers[s]        the point set of the fiber over s;
    products[(s, t)]   (x, y) -> (z, c): delta_x in fiber s times delta_y
                       in fiber t is c delta_z in fiber st (in a one-fiber
                       algebra, several pairs may meet at z);
    stars[s]           x -> (z, c): the adjoint of delta_x in fiber s is
                       c delta_z in fiber s*;
    inclusions[(s, t)] for s <= t, x -> c: delta_x in fiber s is c delta_x
                       in fiber t.

    Scalars are Angles, or complex numbers where a numeric value entered;
    products of Angles stay exact.  mul and star extend the tables
    (conjugate-)linearly to CFunctions, exactly while a point receives one
    term and numerically where terms add.  The checks on point masses read
    the tables compiled to arrays (BundleArrays).  `realization` names the
    builder and the keyword arguments keep the data the tables were built
    from as attributes (A; G and tau; base and phi).
    """

    def __init__(self, S: InverseSemigroup, carriers, products, stars, inclusions,
                 realization: str, **origin):
        self.S = S
        self.carriers = carriers
        self.products = products
        self.stars = stars
        self.inclusions = inclusions
        self.realization = realization
        vars(self).update(origin)

    def carrier(self, s: int) -> frozenset:
        return self.carriers[s]

    def mul(self, s: int, t: int, f: CFunction, g: CFunction) -> CFunction:
        vals = {}
        for (x, y), (z, c) in self.products[(s, t)].items():
            v = _smul(f(x), g(y), c)
            if v != 0:  # the first term at z as it is, a sum as complex
                vals[z] = as_complex(vals[z]) + as_complex(v) if z in vals else v
        return CFunction(self.carriers[self.S.mul(s, t)], vals)

    def star(self, s: int, f: CFunction) -> CFunction:
        vals = {}
        for x, (z, c) in self.stars[s].items():
            v = _smul(scalar_conj(f(x)), c)
            if v != 0:
                vals[z] = as_complex(vals[z]) + as_complex(v) if z in vals else v
        return CFunction(self.carriers[self.S.inv[s]], vals)

    def verify(self, tol: float = 1e-9):
        """The exact axioms on point masses, on the tables compiled to arrays.

        First every product row must join points of the fibers s and t to a
        point of the fiber st, every star entry a point of the fiber s to
        one of the fiber s*, and every inclusion entry of j(t, s) must be a
        point of both fibers; the later families read through the tables,
        so they are skipped if not.  Then associativity, involutivity and
        anti-multiplicativity of the star, and the inclusion families:
        identity, isometric, functorial, and compatible with the star and
        with products on either side.  Returns (ok, violations); each is a
        (tag, where) pair whose where names the semigroup labels and the
        points.
        """
        arrays = BundleArrays(self)
        bad = arrays.fiber_violations() or arrays.exact_violations(tol)
        return not bad, bad


def build_bundle(A: TwistedAction) -> Bundle:
    """The bundle of a twisted action: the fiber over s is functions on U(ss*).

    Product:    (f.g)(y) = f(y) g(theta_s^{-1} y) omega(s,t)(y)
    Involution: f*(x)    = conj(f(theta_s x)) conj(omega(s*,s)(x))
    Inclusion:  j(t,s)(f)(y) = f(y) conj(omega(t, s*s)(y)), zero-extended.
    """
    S = A.S
    carriers = {s: A.carrier(s) for s in S.elements()}
    products, stars, inclusions = {}, {}, {}
    for s in S.elements():
        ss = S.inv[s]
        inv_s = A.theta[s].invert()
        for t in S.elements():
            w = A.omega[(s, t)]
            products[(s, t)] = {(y, inv_s(y)): (y, w(y)) for y in carriers[S.mul(s, t)]}
            if S.leq(s, t):
                inclusions[(s, t)] = A.inclusion_scalars(s, t)
        w = A.omega[(ss, s)]
        stars[s] = {A.theta[s](x): (x, scalar_conj(w(x))) for x in carriers[ss]}
    return Bundle(S, carriers, products, stars, inclusions, "action", A=A)


def SectionBundle(G, tau, S: InverseSemigroup, bisections, carriers=None) -> Bundle:
    """The bundle of compactly supported sections over a twisted groupoid.

    The fiber over a bisection s is functions on its arrow set, optionally
    shrunk by a carrier override, which models non-saturated bundles.
    Products and adjoints are twisted convolution; inclusions are
    zero-extensions.  (Named like a class: callers construct it as one.)
    """
    fibers = {}
    for s in S.elements():
        full = frozenset(bisections[s])
        c = frozenset(carriers[s]) if carriers and s in carriers else full
        if not c <= full:
            raise BundleError("carrier override exceeds bisection")
        fibers[s] = c
    products, stars, inclusions = {}, {}, {}
    for s in S.elements():
        for t in S.elements():
            target = fibers[S.mul(s, t)]
            products[(s, t)] = {(a, b): (G.mul(a, b), tau(a, b))
                                for a in fibers[s] for b in fibers[t]
                                if G.composable(a, b) and G.mul(a, b) in target}
            if S.leq(s, t):
                inclusions[(s, t)] = {a: ONE for a in fibers[s]}
        stars[s] = {G.inv[c]: (c, scalar_conj(tau(G.inv[c], c)))
                    for c in fibers[S.inv[s]] if G.inv[c] in fibers[s]}
    return Bundle(S, fibers, products, stars, inclusions, "section", G=G, tau=tau)


# ---------------------------------------------------------------------------
# the tables as arrays

def _starts(counts) -> np.ndarray:
    """Where each of consecutive blocks of the given lengths begins."""
    out = np.zeros(len(counts), dtype=np.intp)
    np.cumsum(counts[:-1], out=out[1:])
    return out


def _circle(scalars):
    """N, the exponents mod N and the complex values of a list of scalars;
    N is the lcm of the Angles' denominators, and a scalar that is not an
    Angle has the exponent NOT_ANGLE."""
    N, K = exponents([c.frac if isinstance(c, Angle) else None for c in scalars])
    ks = K.tolist()
    vals = {k: c.value for k, c in dict(zip(ks, scalars)).items() if k != NOT_ANGLE}
    V = [complex(c) if k == NOT_ANGLE else vals[k] for c, k in zip(scalars, ks)]
    return N, K, np.array(V, dtype=complex)


class BundleArrays:
    """A Bundle's structure tables as arrays, compiled afresh for each check.

    The points of fiber s are numbered 0 .. c_s - 1 in list(B.carrier(s))
    order, and slot off[s] + x is point x of fiber s.  Every scalar is an
    exponent K mod N, N the lcm of the Angles' denominators, or NOT_ANGLE
    where it is not an Angle, together with its complex value V.

    Each table is kept as its rows in dict order, each row its key's pair
    (or fiber), its points' numbers (-1 outside their fibers) and its
    scalar; the random families multiply dense elements through the rows.
    Once the rows lie in their fibers, lookups() makes each table a lookup
    from its keys to scaled point masses, with one last entry for zero:
    products by (s, t, x, y) at poff[s, t] + x c_t + y, stars by slot, and
    j(t, s) by ioff[s, t] + x.  A scaled point mass is a triple (z, K, V)
    of arrays, z the point's number in its fiber or NOWHERE for zero; V is
    None while `angles`, which starts true when every scalar is an Angle (a
    check that needs the complex values sets it false before lookups()).
    The checks gather through the lookups over the grids `pairs` and
    `below`, and compare Angles as exponents, with zero tolerance.
    """

    def __init__(self, B):
        S = self.S = B.S
        n = self.n = S.n
        self.T, self.leq = S.cayley, S.order
        self.inv = np.array(S.inv, dtype=np.intp).reshape(n)
        pts = self.points = [list(B.carrier(s)) for s in range(n)]
        loc = self.index = [{x: i for i, x in enumerate(p)} for p in pts]
        cs = self.cs = np.array([len(p) for p in pts], dtype=np.intp).reshape(n)
        self.off, self.M = _starts(cs), int(cs.sum())
        self.W = max(1, int(cs.max(initial=0)))
        self.slot_s = np.repeat(np.arange(n), cs)
        self.slot_x = np.arange(self.M) - self.off[self.slot_s]

        scalars, prod, prod_count, star, star_count, inc = [], [], [], [], [], []
        for s, row in enumerate(S.table):
            ls = loc[s]
            for t, st in enumerate(row):
                lt, lst = loc[t], loc[st]
                entries = B.products[(s, t)]
                prod_count.append(len(entries))
                for (x, y), (z, c) in entries.items():
                    prod.append((ls.get(x, -1), lt.get(y, -1), lst.get(z, -1)))
                    scalars.append(c)
        for s, si in enumerate(S.inv):
            ls, li = loc[s], loc[si]
            entries = B.stars[s]
            star_count.append(len(entries))
            for x, (z, c) in entries.items():
                star.append((ls.get(x, -1), li.get(z, -1)))
                scalars.append(c)
        self.inclusion_keys = list(B.inclusions)
        for k, ((s, t), entries) in enumerate(B.inclusions.items()):
            ls, lt = loc[s], loc[t]
            for x, c in entries.items():
                inc.append((k, s * n + t, ls.get(x, -1), lt.get(x, -1)))
                scalars.append(c)
        self.N, K, V = _circle(scalars)
        self.angles = not (K == NOT_ANGLE).any()
        a, b = len(prod), len(prod) + len(star)

        def columns(rows, width):
            return tuple(np.array(rows, dtype=np.intp).reshape(-1, width).T)

        self.prod_count = np.array(prod_count, dtype=np.intp).reshape(n * n)
        self.prod_start = _starts(self.prod_count)
        self.products = (np.repeat(np.arange(n * n), self.prod_count),
                         *columns(prod, 3), K[:a], V[:a])
        self.star_count = np.array(star_count, dtype=np.intp).reshape(n)
        self.star_start = _starts(self.star_count)
        self.stars = (np.repeat(np.arange(n), self.star_count), *columns(star, 2), K[a:b], V[a:b])
        self.inclusions = (*columns(inc, 4), K[b:], V[b:])
        self.missing = [(int(s), int(t)) for s, t in zip(*np.nonzero(self.leq & (cs > 0)[:, None]))
                        if (s, t) not in B.inclusions]

    # -- the fiber scans

    def fiber_violations(self) -> list:
        """Tables whose entries leave their fibers: product rows of (s, t)
        and star entries of s, row by row of the semigroup, then inclusion
        tables in dict order."""
        n, lab = self.n, self.S.label
        pair, x, y, z, _, _ = self.products
        grid = np.zeros((n, n + 1), dtype=bool)
        outside = np.zeros(n * n, dtype=bool)
        outside[pair[(x < 0) | (y < 0) | (z < 0)]] = True
        grid[:, :n] = outside.reshape(n, n)
        fiber, x, z, _, _ = self.stars
        grid[fiber[(x < 0) | (z < 0)], n] = True
        bad = [("star-fiber", lab(s)) if t == n else ("product-fiber", (lab(s), lab(t)))
               for s, t in zip(*np.nonzero(grid))]
        key, _, x, z, _, _ = self.inclusions
        for k in np.unique(key[(x < 0) | (z < 0)]):
            s, t = self.inclusion_keys[k]
            bad.append(("inclusion-fiber", (lab(s), lab(t))))
        return bad

    # -- the exact families, on point masses

    def widen(self, N: int) -> None:
        """Keep the exponents mod N, a multiple of self.N, from here on;
        before lookups()."""
        self.products, self.stars, self.inclusions = (
            (*rows[:-2], widen(rows[-2], self.N, N), rows[-1])
            for rows in (self.products, self.stars, self.inclusions))
        self.N = N

    def lookups(self) -> None:
        """The tables as lookups; they must lie in their fibers, and every
        s <= t whose fiber s has points needs its inclusion table."""
        if self.missing:
            raise KeyError(self.missing[0])
        n, cs, M = self.n, self.cs, self.M
        sizes = np.outer(cs, cs).ravel()
        self.poff, self.M2 = _starts(sizes).reshape(n, n), int(sizes.sum())
        self.ioff = _starts(np.repeat(cs, n)).reshape(n, n)
        pair, x, y, z, K, V = self.products
        self.P = self._lookup(self.M2, self.poff.ravel()[pair] + x * cs[pair % n] + y, z, K, V)
        fiber, x, z, K, V = self.stars
        self.St = self._lookup(M, self.off[fiber] + x, z, K, V)
        _, pair, x, z, K, V = self.inclusions
        self.J = self._lookup(n * M, self.ioff.ravel()[pair] + x, z, K, V)

    def _lookup(self, size, at, z, K, V):
        """The table as arrays over its keys and one last entry for zero;
        without V while `angles`."""
        Z = np.full(size + 1, NOWHERE, dtype=np.intp)
        Z[at] = np.where(V != 0, z, NOWHERE)
        KK = np.full(size + 1, NOT_ANGLE, dtype=K.dtype)
        KK[at] = K
        if self.angles:
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
        return self._take(self.P, self.poff[s, t] + x * self.cs[t] + y)

    def star(self, s, x):
        """The adjoint of delta_x in fiber s."""
        return self._take(self.St, self.off[s] + x)

    def include(self, s, t, x):
        """j(t, s) of delta_x in fiber s."""
        return self._take(self.J, self.ioff[s, t] + x)

    def unit(self, x):
        """The point masses delta_x, unscaled."""
        return x, 0, None if self.angles else 1.0

    def scaled(self, z, *factors):
        """The point masses at z scaled by the product of the factors, each
        a (K, V) pair.  Exponents are reduced mod N only when compared; the
        sums here have at most three terms, which int64 holds while
        N <= 2**61."""
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
        return np.where(K >= 0, -K % self.N, K), np.conj(V)

    def far(self, p, q, tol):
        """Whether two scaled point masses differ by more than tol at some
        point: at one point unless their scalars agree within tol, two
        Angles unless their exponents agree; at two points unless neither
        scalar exceeds tol."""
        (zp, Kp, Vp), (zq, Kq, Vq) = p, q
        at_p, at_q, one = zp != NOWHERE, zq != NOWHERE, 1.0 > tol
        if self.angles:
            differ, big_p, big_q = (Kp - Kq) % self.N != 0, at_p & one, at_q & one
        else:
            big_p = at_p & np.where(Kp >= 0, one, np.abs(Vp) > tol)
            big_q = at_q & np.where(Kq >= 0, one, np.abs(Vq) > tol)
            differ = np.where((Kp >= 0) & (Kq >= 0), (Kp - Kq) % self.N != 0,
                              np.abs(Vp - Vq) > tol)
        return np.where(zp == zq, at_p & differ, big_p | big_q)

    @cached_property
    def pairs(self):
        """Every pair of points x of fiber s and y of fiber t, as flat
        arrays s, t, x, y in that order; pair k is product lookup k."""
        n, cs = self.n, self.cs
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

    def exact_violations(self, tol) -> list:
        """Associativity, then involutivity and anti-multiplicativity of the
        star, then the inclusion families; the tables must lie in their
        fibers."""
        self.lookups()
        return self._associativity(tol) + self._star_laws(tol) + self._inclusion_laws(tol)

    def _associativity(self, tol) -> list:
        """(delta_x delta_y) delta_z = delta_x (delta_y delta_z) for every
        x, y, z in fibers r, s, t, chunked over the points x."""
        M, T, ps, px = self.M, self.T, self.slot_s, self.slot_x
        s, y = ps[:, None], px[:, None]
        t, z = ps[None, :], px[None, :]
        st = T[s, t]
        yz = self.product(s, t, y, z)
        found = [np.empty((3, 0), dtype=np.intp)]
        step = max(1, CHUNK // max(1, M * M))
        for a in range(0, M, step):
            r, x = ps[a:a + step, None, None], px[a:a + step, None, None]
            xy = self.product(r, s, x, y)
            left = self.product(T[r, s], t, xy[0], z)
            right = self.product(r, st, x, yz[0])
            bad = self.far(self.scaled(left[0], xy[1:], left[1:]),
                           self.scaled(right[0], yz[1:], right[1:]), tol)
            i, j, k = np.nonzero(bad)
            found.append(np.stack([a + i, j, k]))
        q = np.concatenate(found, axis=1)
        q = q[:, np.lexsort((px[q[2]], px[q[1]], px[q[0]], ps[q[2]], ps[q[1]], ps[q[0]]))]
        lab, pts = self.S.label, self.points
        return [("associativity", (lab(r), lab(s), lab(t), pts[r][x], pts[s][y], pts[t][z]))
                for r, s, t, x, y, z in zip(*ps[q], *px[q])]

    def _star_laws(self, tol) -> list:
        """x** = x on every slot, then (xy)* = y* x* on every pair of slots
        in the order (s, t, x, y)."""
        T, inv, ps, px = self.T, self.inv, self.slot_s, self.slot_x
        lab, pts = self.S.label, self.points
        sx = self.star(ps, px)
        back = self.star(inv[ps], sx[0])
        bad = self.far(self.scaled(back[0], self.conj(*sx[1:]), back[1:]), self.unit(px), tol)
        out = [("involutive", (lab(s), pts[s][x])) for s, x in zip(ps[bad], px[bad])]

        s, t, x, y = self.pairs
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
        """The six inclusion families on every point x of fiber s, s <= t,
        in the former loop's order: isometric, identity, functorial over
        the r between, star, then products with every point y of every
        fiber u on the left and on the right."""
        T, inv, ps, px, leq = self.T, self.inv, self.slot_s, self.slot_x, self.leq
        s, t, x = self.below
        jp = self.include(s, t, x)
        lab, pts = self.S.label, self.points

        def at(i):
            return lab(s[i]), lab(t[i]), pts[s[i]][x[i]]

        found = []  # (sort key, violation)
        iso = (jp[0] == NOWHERE) & (1.0 > tol)
        if not self.angles:
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
        step = max(1, CHUNK // max(1, self.M))
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

    # -- the random families, on dense elements

    def random_violations(self, tol, samples: int, rng) -> list:
        """The families on random dense elements, batched over every
        (s, t, sample) or (s, sample) in chunks.  The draws are the former
        loops' draws in their order, two per complex number: per
        (s, t, sample) f1, f2 in s, g in t, lambda, h1, h2 in t and e in s;
        per (s, t, sample) f in s and g in t; per (s, sample) f, g in s and
        lambda; per (s, sample) f in s."""
        n, cs, lab = self.n, self.cs, self.S.label
        pair = np.repeat(np.arange(n * n), samples)
        s, t = pair // n, pair % n
        fiber = np.repeat(np.arange(n), samples)
        c_s, c_t, c_f = cs[s], cs[t], cs[fiber]
        lengths = np.concatenate([3 * c_s + 3 * c_t + 1, c_s + c_t, 2 * c_f + 1, c_f])
        total = int(lengths.sum())
        o1, o2, o3, o4 = np.split(_starts(lengths), np.cumsum([len(pair)] * 2 + [len(fiber)]))
        gauss = rng.gauss
        Z = np.zeros(total + 1, dtype=complex)
        Z[:total] = np.fromiter((gauss(0, 1) for _ in range(2 * total)), dtype=float,
                                count=2 * total).view(complex)
        step = max(1, CHUNK // (8 * self.W))
        linear, submultiplicative = map(np.concatenate, zip(*(
            self._products(Z, tol, pair[a:a + step], o1[a:a + step], o2[a:a + step])
            for a in range(0, max(1, len(pair)), step))))
        involution, cstar = map(np.concatenate, zip(*(
            self._involution(Z, tol, fiber[a:a + step], o3[a:a + step], o4[a:a + step])
            for a in range(0, max(1, len(fiber)), step))))

        out = [(("left-linearity", "right-linearity")[k], (lab(s[i]), lab(t[i])))
               for i, k in zip(*np.nonzero(linear))]
        out += [("submultiplicative", (lab(s[i]), lab(t[i])))
                for i in np.flatnonzero(submultiplicative)]
        out += [(("star-isometric", "conjugate-linear")[k], lab(fiber[i]))
                for i, k in zip(*np.nonzero(involution))]
        for i, k in zip(*np.nonzero(cstar)):
            u = fiber[i]
            out.append(("positivity", (lab(u), self.points[self.T[self.inv[u], u]][k - 1]))
                       if k else ("cstar-identity", lab(u)))
        return out

    def _elements(self, Z, starts, fibers):
        """The dense elements of the given fibers drawn from Z at the given
        starts, padded with zeros to the widest fiber."""
        col = np.arange(self.W)
        starts, sizes = np.stack(starts)[..., None], self.cs[np.stack(fibers)][..., None]
        return Z[np.where(col < sizes, starts + col, len(Z) - 1)]

    def _products(self, Z, tol, pair, o1, o2):
        """Left- and right-linearity, then submultiplicativity, for the
        batch (s, t) = pair[b], its draws starting at o1[b] and o2[b]."""
        s, t = pair // self.n, pair % self.n
        c_s, c_t = self.cs[s], self.cs[t]
        o = o1 + 2 * c_s + c_t  # lambda, then h1, h2 and e
        lam = Z[o][:, None]
        f1, f2, g, h1, h2, e, f, g2 = self._elements(
            Z, [o1, o1 + c_s, o1 + 2 * c_s, o + 1, o + 1 + c_t, o + 1 + 2 * c_t, o2, o2 + c_s],
            [s, s, t, t, t, s, s, t])
        m = self._mul(pair, np.stack([lam * f1 + f2, f1, f2, e, e, e, f]),
                      np.stack([g, g, g, lam * h1 + h2, h1, h2, g2]))
        linear = np.stack([~_close(m[0], lam * m[1] + m[2], tol),
                           ~_close(m[3], lam * m[4] + m[5], tol)], axis=1)
        return linear, _sup(m[6]) > _sup(f) * _sup(g2) + tol

    def _involution(self, Z, tol, fiber, o3, o4):
        """Star-isometric and conjugate-linear, then the C*-identity and
        positivity at every point of the fiber over s*s, for the batch
        s = fiber[b], its draws starting at o3[b] and o4[b]."""
        f, g, f4 = self._elements(Z, [o3, o3 + self.cs[fiber], o4], [fiber] * 3)
        lam = Z[o3 + 2 * self.cs[fiber]][:, None]
        star = self._star(fiber, np.stack([f, lam * f + g, g, f4]))
        involution = np.stack([np.abs(_sup(star[0]) - _sup(f)) > tol,
                               ~_close(star[1], np.conj(lam) * star[0] + star[2], tol)], axis=1)
        p = self._mul(self.inv[fiber] * self.n + fiber, star[3:], f4[None])[0]
        norm = _sup(f4) ** 2
        return involution, np.concatenate(
            [(np.abs(_sup(p) - norm) > tol * np.maximum(1.0, norm))[:, None],
             (np.abs(p.imag) > tol) | (p.real < -tol)], axis=1)

    def _mul(self, pair, L, R):
        """Bundle.mul of the dense elements L[k, b] of fiber s and R[k, b]
        of fiber t, (s, t) = pair[b], through the product rows."""
        b, r = _expand(self.prod_start, self.prod_count, pair)
        _, x, y, z, _, V = self.products
        return self._scatter(L[:, b, x[r]] * R[:, b, y[r]] * V[r], b, z[r], len(pair))

    def _star(self, fiber, L):
        """Bundle.star of the dense elements L[k, b] of fiber[b]."""
        b, r = _expand(self.star_start, self.star_count, fiber)
        _, x, z, _, V = self.stars
        return self._scatter(np.conj(L[:, b, x[r]]) * V[r], b, z[r], len(fiber))

    def _scatter(self, v, b, z, size):
        """The terms v[k, i] summed at (k, b[i], z[i]) in row order, as
        Bundle.mul and Bundle.star sum the terms that meet at one point."""
        out = np.zeros((len(v), size, self.W), dtype=complex)
        np.add.at(out, (slice(None), b, z), v)
        return out


def _sup(f):
    """The sup norms of dense elements along the last axis."""
    return np.abs(f).max(axis=-1)


def _close(f, g, tol):
    """Whether dense elements agree within tol at every point."""
    return (np.abs(f - g) <= tol).all(axis=-1)


def _expand(start, count, keys):
    """For each key in turn, the rows start[key] .. start[key] + count[key]:
    the position of the key and the row, one pair per row."""
    n = count[keys]
    b = np.repeat(np.arange(len(keys)), n)
    return b, np.repeat(start[keys] - _starts(n), n) + np.arange(len(b))


def verify_fell_bundle(B, tol: float = 1e-9, samples: int = 3, rng=None):
    """Check the bundle axioms: the exact point-mass families are
    B.verify's, and the rest run on random dense elements.

    All operations are bilinear or conjugate-linear, so point-mass
    equality extends to the whole fiber; the random families exercise
    linearity itself: left- and right-linearity, submultiplicativity,
    star-isometric, conjugate-linear, the C*-identity and positivity.
    Their norms are the sup norm of functions on the points, the C*-norm
    of a commutative fiber; a one-fiber algebra whose products add terms
    is no such fiber, and alg.verify() checks it.  The tables are compiled
    to arrays once (BundleArrays) and every family runs on them.  Returns
    (ok, violations).
    """
    import random as _random
    rng = rng or _random.Random(0)
    arrays = BundleArrays(B)
    bad = arrays.fiber_violations()
    if bad:
        return False, bad
    bad = arrays.exact_violations(tol) + arrays.random_violations(tol, samples, rng)
    return not bad, bad


def classify_bundle(B, tol: float = 1e-9):
    """Report saturation, semi-abelianness, and fiberwise regularity.

    Regularity of a commutative-model fiber means the constant-one
    function is a two-sided generating multiplier; the witness family is
    returned when every fiber is regular.
    """
    S = B.S

    def targets(s, t):
        return {z for z, _ in B.products[(s, t)].values()}

    unsat = [(S.label(s), S.label(t)) for s in S.elements() for t in S.elements()
             if targets(s, t) != B.carrier(S.mul(s, t))]

    semi_abelian = True
    for e in S.idem:
        table = B.products[(e, e)]
        for (x, y), (z, c) in table.items():
            z2, c2 = table.get((y, x), (None, 0))
            if z2 != z or abs(as_complex(c) - as_complex(c2)) > tol:
                semi_abelian = False

    # the constant-one multiplier times a point mass is that point mass's
    # row, so it generates fiber s from either side iff the rows cover it
    regular = {S.label(s): targets(s, S.mul(S.inv[s], s)) == B.carrier(s)
               == targets(S.mul(s, S.inv[s]), s)
               for s in S.elements()}
    witness = canonical_multipliers(B)

    return {
        "saturated": not unsat,
        "unsaturated_pairs": unsat,
        "semi_abelian": semi_abelian,
        "regular": regular,
        "witness": witness if all(regular.values()) else None,
    }


def canonical_multipliers(B) -> dict:
    """The constant-one unitary multiplier family."""
    return {s: CFunction.one(B.carrier(s)) for s in B.S.elements()}


def check_multiplier_family(B, u) -> None:
    S = B.S
    for s in S.elements():
        f = u[s]
        if f.carrier != B.carrier(s) or not f.is_unit_modulus():
            raise BadMultiplierFamily(f"u[{S.label(s)}] is not unit modulus")
    for e in S.idem:
        for x in u[e].carrier:
            if u[e](x) != 1:
                raise BadMultiplierFamily(f"u at idempotent {S.label(e)} is not one")


def extract_action(B, u) -> TwistedAction:
    """Read the twisted action back off a saturated semi-abelian bundle.

    theta_s comes from the support bijection of conjugation by u_s;
    omega(s, t) is the coordinate function of u_s u_t u_{st}*.
    """
    from fellsem.partial_maps import PartialBijection

    S = B.S
    info = classify_bundle(B)
    if not info["saturated"]:
        raise NotSaturated(str(info["unsaturated_pairs"]))
    if not info["semi_abelian"]:
        raise NotSemiAbelian("an idempotent fiber is noncommutative")
    check_multiplier_family(B, u)

    X = sorted(set().union(*(B.carrier(e) for e in S.idem)), key=str)
    U = {s: B.carrier(S.mul(s, S.inv[s])) for s in S.elements()}

    theta = {}
    for s in S.elements():
        ss = S.inv[s]
        dom = B.carrier(S.mul(ss, s))
        mapping = {}
        for x in dom:
            a = B.mul(s, S.mul(ss, s), u[s], CFunction(dom, {x: ONE}))
            b = B.mul(s, ss, a, B.star(s, u[s]))
            supp = b.support()
            if len(supp) != 1:
                raise BundleError("conjugation by the multiplier is not point-to-point")
            mapping[x] = next(iter(supp))
        theta[s] = PartialBijection(mapping)

    omega = {}
    for s in S.elements():
        for t in S.elements():
            st = S.mul(s, t)
            m = B.mul(s, t, u[s], u[t])
            w = B.mul(st, S.inv[st], m, B.star(st, u[st]))
            vals = {}
            for y in w.carrier:
                v = w(y)
                if v == 0:
                    raise BundleError("multiplier coordinate vanishes")
                vals[y] = v
            omega[(s, t)] = CFunction(w.carrier, vals)
    return TwistedAction(S, X, U, theta, omega)


def roundtrip_check(A: TwistedAction):
    """Build the bundle, extract with the canonical family, compare exactly."""
    B = build_bundle(A)
    A2 = extract_action(B, canonical_multipliers(B))
    ok = A.equals(A2)
    diff = None
    if not ok:
        diff = []
        for s in A.S.elements():
            if A.theta[s] != A2.theta[s]:
                diff.append(("theta", A.S.label(s)))
        for key, w in A.omega.items():
            if not w.equals(A2.omega[key]):
                diff.append(("omega", (A.S.label(key[0]), A.S.label(key[1]))))
    return ok, diff
