"""Semi-abelian Fell bundles over finite inverse semigroups.

Every bundle modelled here is monomial: in the point-mass bases of the
fibers, the product of two basis elements, the adjoint of one and its
inclusion into a larger fiber are each a single scaled basis element.  A
Bundle is these structure tables as rows of integer arrays, built once and
read-only: point numbers, and each scalar an exponent mod N (as in
fellsem.action) with a complex value only where it is not an angle.  The
builders emit the rows directly: build_bundle(A) from an action's exponent
kernel, SectionBundle from a twisted groupoid's bisections, and
refine.RefinedBundle from a base bundle's rows.  An algebra is a Bundle
with one fiber (see fellsem.algebra).

Every check reads the rows.  Bundle.verify gathers the exact axioms on
point masses through lookups made from them, comparing angles as exponents,
and associativity by Light's test, with middle factors only the point
masses of the fibers of S's generators and the slots their products miss;
verify_fell_bundle adds the norm axioms, by an exact lemma on the rows.  A
unitary multiplier family, which extract_action reads the action back
through, is held as the rows hold scalars: (N, K, V) over the slots, n x W.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

import numpy as np

from fellsem.action import (CHUNK, NOT_ANGLE, OUTSIDE, Frame, TwistedAction, _exponent_dtype, mod,
                            omega_differs, turns, widen)
from fellsem.angles import turn
from fellsem.groupoid import held_pairs, membership
from fellsem.isg import InverseSemigroup, first_true, generating_set, index_pairs

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


def _starts(counts) -> np.ndarray:
    """Where each of consecutive blocks of the given lengths begins."""
    return np.cumsum(counts) - counts


class Bundle:
    """A monomial Fell bundle over S, given by its rows.

    points[s]    the points of fiber s; point x of fiber s is numbered by its
                 place in this list, and slot off[s] + x numbers it among
                 the points of every fiber;
    products     rows (pair, x, y, z, K, V), pair = s n + t: delta_x in
                 fiber s times delta_y in fiber t is e(K) delta_z in fiber
                 st (in a one-fiber algebra, several rows may meet at z);
    stars        rows (s, x, z, K, V): the adjoint of delta_x in fiber s is
                 e(K) delta_z in fiber s*;
    inclusions   rows (pair, x, z, K, V), pair = s n + t with s <= t:
                 j(t, s) sends delta_x in fiber s to e(K) delta_z in fiber
                 t, z the same point numbered in fiber t.

    e(K) is exp(2 pi i K/N).  Where a scalar is not an angle, K is
    NOT_ANGLE and V holds its value (V is None in a table with none).
    Tables are sorted by their first column; a point number outside its
    fiber (-1) is reported by the fiber scans.  The arrays are read-only.
    `realization` names the builder and the keyword arguments keep what the
    rows were built from (A; G and tau; base and phi; A and germs).
    """

    def __init__(self, S: InverseSemigroup, points, N: int, products, stars, inclusions,
                 realization: str, **origin):
        self.S, self.N, self.realization = S, N, realization
        self.points = tuple(tuple(p) for p in points)
        self.products, self.stars, self.inclusions = (
            _table(rows, N) for rows in (products, stars, inclusions))
        self.angles = all(t[-1] is None for t in (self.products, self.stars, self.inclusions))
        self.T, self.leq = S.cayley, S.order
        self._lookups = {}
        vars(self).update(origin)

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

    def lookup(self, N: int | None = None, exact: bool | None = None) -> "Lookup":
        """The rows as lookups with exponents mod N (a multiple of self.N,
        the default), without complex values if `exact` (default: angles)."""
        key = (N or self.N, self.angles if exact is None else exact)
        if key not in self._lookups:
            self._lookups[key] = Lookup(self, *key)
        return self._lookups[key]

    def verify(self, tol: float = 1e-9):
        """The exact axioms on point masses, gathered through the rows.

        The fiber scans first: each row in its fibers, each key in one row.
        Then associativity, involutivity and anti-multiplicativity of the
        star, and the inclusion families: identity, isometric, functorial,
        and compatible with the star and with products on either side.
        Returns (ok, violations), each a (tag, where) pair whose where names
        the semigroup labels and the points.
        """
        bad = self.fiber_violations() or self.lookup().exact_violations(tol)
        return not bad, bad

    # -- the fiber scans

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


def _table(rows, N: int):
    """A table's rows sorted by their first column, read-only."""
    *cols, K, V = rows
    cols = [np.asarray(c, dtype=np.intp) for c in cols]
    K = np.asarray(K, dtype=_exponent_dtype(N))
    V = None if V is None or not (K == NOT_ANGLE).any() else np.asarray(V, dtype=complex)
    if (cols[0][1:] < cols[0][:-1]).any():
        order = np.argsort(cols[0], kind="stable")
        cols, K, V = [c[order] for c in cols], K[order], None if V is None else V[order]
    for a in (*cols, K) if V is None else (*cols, K, V):
        a.flags.writeable = False
    return (*cols, K, V)


def _expand(start, count, keys):
    """For each key in turn, the rows start[key] .. start[key] + count[key]:
    the position of the key and the row, one pair per row."""
    n = count[keys]
    b = np.repeat(np.arange(len(keys)), n)
    return b, np.repeat(start[keys] - _starts(n), n) + np.arange(len(b))


class Lookup:
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


# ---------------------------------------------------------------------------
# the builders

def build_bundle(A: TwistedAction) -> Bundle:
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


def SectionBundle(G, tau, S: InverseSemigroup, bisections, carriers=None) -> Bundle:
    """The bundle of compactly supported sections over a twisted groupoid.

    The fiber over a bisection s is functions on its arrow set, optionally
    shrunk by a carrier override, which models non-saturated bundles.
    Products and adjoints are twisted convolution, their scalars tau's
    exponents K and -K mod N; inclusions are zero-extensions.  (Named like
    a class: callers construct it as one.)
    """
    n, points = S.n, []
    for s in S.elements():
        full = frozenset(bisections[s])
        c = frozenset(carriers[s]) if carriers and s in carriers else full
        if not c <= full:
            raise BundleError("carrier override exceeds bisection")
        points.append(sorted(c))
    fiber = membership(G, points)
    u, c = np.nonzero(fiber)  # the points, fiber by fiber
    num = np.full((n, G.m + 1), -1, dtype=np.intp)  # [s, arrow]: its number in fiber s; -1 reads -1
    num[u, c] = np.arange(len(u)) - _starts(fiber.sum(axis=1))[u]
    s, t, p = held_pairs(G, fiber)
    z = num[S.cayley[s, t], G.pair_ab[p]]
    s, t, p, z = (v[z >= 0] for v in (s, t, p, z))  # into fiber st
    # the adjoint of the point c^-1 of fiber s = u* is c in fiber u
    star, inv_c = np.asarray(S.inv, dtype=np.intp)[u], np.asarray(G.inv, dtype=np.intp)[c]
    x = num[star, inv_c]
    star, inv_c, u, c, x = (v[x >= 0] for v in (star, inv_c, u, c, x))
    lo, hi = np.nonzero(S.order)
    i, a = np.nonzero(fiber[lo])
    N, K = tau.exponents(np.concatenate([p, G.pair_index[inv_c, c]]))
    return Bundle(S, points, N, (s * n + t, num[s, G.pair_a[p]], num[t, G.pair_b[p]], z, K[:len(p)], None),
                  (star, x, num[u, c], mod(-K[len(p):], N), None),
                  (lo[i] * n + hi[i], num[lo[i], a], num[hi[i], a], np.zeros(len(i), dtype=np.intp), None),
                  "section", G=G, tau=tau)


# ---------------------------------------------------------------------------
# the readers

def verify_fell_bundle(B, tol: float = 1e-9, rng=None):
    """Check the bundle axioms: B.verify's exact point-mass families, then
    the norm axioms by the lemma of Lookup.norm_violations.  No family draws
    random numbers; `rng` is accepted and ignored.  Returns (ok, violations).
    """
    bad = B.fiber_violations() or (
        B.lookup().exact_violations(tol) + B.lookup().norm_violations(tol))
    return not bad, bad


def classify_bundle(B, tol: float = 1e-9):
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
    pair, x, y, z, K, V = B.products
    idem = np.zeros(n * n, dtype=bool)
    idem[np.array(S.idem, dtype=np.intp) * (n + 1)] = True
    r = np.flatnonzero(idem[pair])
    row = {key: i for i, key in zip(r.tolist(), zip(pair[r].tolist(), x[r].tolist(), y[r].tolist()))}

    def value(i):
        return turn(int(K[i]), B.N) if K[i] >= 0 else complex(V[i])
    semi_abelian = all(
        j is not None and z[i] == z[j] and (K[i] == K[j] >= 0 or abs(value(i) - value(j)) <= tol)
        for (p, a, c), i in row.items() for j in [row.get((p, c, a))])

    # the constant-one multiplier times a point mass is that point mass's
    # row, so it generates fiber s from either side iff the rows cover it
    ar = np.arange(n)
    regular = reached[ar * n + B.T[B.inv, ar]] & reached[B.T[ar, B.inv] * n + ar]
    regular = {S.label(s): bool(regular[s]) for s in S.elements()}
    return {"saturated": not unsat, "unsaturated_pairs": unsat, "semi_abelian": semi_abelian,
            "regular": regular,
            "witness": canonical_multipliers(B) if all(regular.values()) else None}


def canonical_multipliers(B) -> tuple:
    """The constant-one multiplier family: exponent zero on every slot."""
    return 1, np.where(np.arange(B.W) < B.cs[:, None], 0, OUTSIDE), None


def check_multiplier_family(B, u) -> None:
    """u is (N, K, V) over B's slots: K[s, x] the exponent mod N of u_s at
    point x of fiber s, NOT_ANGLE where V holds a value that is not an angle,
    OUTSIDE past the fiber.  u_s must be unit modulus, and one at idempotents."""
    S, (N, K, V) = B.S, u
    live = np.arange(B.W) < B.cs[:, None]
    # |V| by hypot, as abs() computes it: numpy's complex abs can differ in the last bit
    unit = K >= 0 if V is None else (K >= 0) | (K == NOT_ANGLE) & (np.hypot(V.real, V.imag) == 1)
    if (bad := np.where(live, ~unit, K != OUTSIDE).any(axis=1)).any():
        raise BadMultiplierFamily(f"u[{S.label(first_true(bad)[0])}] is not unit modulus")
    one = K == 0 if V is None else (K == 0) | (K == NOT_ANGLE) & (V == 1)
    E = np.array(S.idem, dtype=np.intp)
    if (bad := (live[E] & ~one[E]).any(axis=1)).any():
        raise BadMultiplierFamily(f"u at idempotent {S.label(E[first_true(bad)[0]])} is not one")


def extract_action(B, u) -> TwistedAction:
    """Read the twisted action back off a saturated semi-abelian bundle.

    u is a unitary multiplier family (N, K, V), as check_multiplier_family
    describes it.  theta_s comes from the support bijection of conjugation
    by u_s; omega(s, t) is the coordinate function of u_s u_t u_{st}*,
    exact while every factor is an angle, and held as exponent arrays.
    """
    X, U, theta, N, e, K, V = _extract(B, u)
    F = Frame(B.S, X, U, theta)
    where = np.array([F.index.get(y, -1) for p in B.points for y in p], dtype=np.intp)
    return TwistedAction.from_exponents(F, N, *_placed(B, e, K, V, where, F.m))


def _extract(B, u):
    """X, U, theta and omega of the action of B and u: omega(s, t) as
    exponents mod N, K[s n + t, c], and values V, over the points c of
    fiber e[s n + t] = st (st)*."""
    S, n, W = B.S, B.S.n, B.W
    info = classify_bundle(B)
    if not info["saturated"]:
        raise NotSaturated(str(info["unsaturated_pairs"]))
    if not info["semi_abelian"]:
        raise NotSemiAbelian("an idempotent fiber is noncommutative")
    check_multiplier_family(B, u)
    Nu, uK, uV = u
    N, ar, T, inv, pts = lcm(B.N, Nu), np.arange(n), B.T, B.inv, B.points
    us = widen(uK, Nu, N), turns(uK, Nu, uV).reshape(n, W)
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
        K = np.where(count == 1, one, np.where(count == 0, OUTSIDE, NOT_ANGLE))
        return K.reshape(size, W), value.reshape(size, W)

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
    g = (np.concatenate([np.where(delta, 0, OUTSIDE), us[0][pair % n]]),
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


def _placed(B, e, K, V, where, m: int):
    """Extracted omega exponents and values as n x n x m arrays W and V (V
    None if every value is an angle), with slot k of B at column where[k]."""
    n = B.S.n
    p, c = np.nonzero(np.arange(B.W) < B.cs[e][:, None])
    at, K = (p, where[B.off[e[p]] + c]), K[p, c]
    W = np.full((n * n, m), OUTSIDE, dtype=K.dtype)
    W[at] = K
    if not (K == NOT_ANGLE).any():
        return W.reshape(n, n, m), None
    odd = np.zeros((n * n, m), dtype=complex)
    odd[at] = V[p, c]
    return W.reshape(n, n, m), odd.reshape(n, n, m)


def roundtrip_check(A: TwistedAction):
    """Build the bundle, extract with the canonical family, compare exactly:
    theta as maps, omega with omega_differs.  The bundle's slots are A's
    fiber points in A's point order, so the extracted exponents land on A's
    points without a second Frame."""
    B = build_bundle(A)
    X, U, theta, N, e, K, V = _extract(B, canonical_multipliers(B))
    S, F = A.S, A.frame
    W, V = _placed(B, e, K, V, np.nonzero(F.fib)[1], F.m)
    diff = [("theta", S.label(s)) for s in S.elements() if A.theta[s] != theta[s]]
    differ = omega_differs((A.N, A.W, A.V), (N, W, V))
    diff += [("omega", (S.label(s), S.label(t))) for s, t in zip(*np.nonzero(differ))]
    ok = not diff and A.X == X and A.U == U
    return ok, None if ok else diff
