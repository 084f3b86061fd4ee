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

Every check reads the rows.  All that it reads of their point columns alone
is compiled once per Geometry: build_bundle's is its frame's, so the actions
of one frame share it.  Bundle.verify gathers the exact axioms on point
masses through its lookups, each family's compiled keys and masks, and
compares angles as exponents (a gather, a signed sum and a mod), and
associativity by Light's test, with middle factors only the point masses of
the fibers of S's generators and the slots their products miss;
verify_fell_bundle adds the norm axioms, by an exact lemma on the rows.  A
unitary multiplier family, which extract_action reads the action back
through, is held as the rows hold scalars: (N, K, V) over the slots, n x W.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm

import numpy as np

from fellsem.action import (CHUNK, NOT_ANGLE, OUTSIDE, Frame, TwistedAction, _exponent_dtype, _freeze,
                            held, mod, omega_differs, turns, widen)
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
    The point columns and all that is read of them alone are a Geometry,
    whose attributes (cs, off, M, W, slot_s, ...) the bundle reads as its
    own.  `realization` names the builder and the keyword arguments keep
    what the rows were built from (A; G and tau; base and phi).
    """

    def __init__(self, S: InverseSemigroup, points, N: int, products, stars, inclusions,
                 realization: str, **origin):
        tables = [_table(rows, N) for rows in (products, stars, inclusions)]
        self._hold(Geometry(S, points, *(t[:-2] for t in tables), tables), N, tables, realization, origin)

    def _hold(self, geometry, N, tables, realization, origin):
        self.geometry, self.S, self.N, self.realization = geometry, geometry.S, N, realization
        self.points, (self.products, self.stars, self.inclusions) = geometry.points, tables
        self.angles = all(t[-1] is None for t in tables)
        self.T, self.leq, self._lookups = self.S.cayley, self.S.order, {}
        vars(self).update(origin)

    def __getattr__(self, name):  # a geometry attribute, kept as the bundle's own once read
        if name == "geometry":
            raise AttributeError(name)
        value = vars(self)[name] = getattr(self.geometry, name)
        return value

    def carrier(self, s: int) -> frozenset:
        return frozenset(self.points[s])

    @cached_property
    def values(self) -> tuple:
        """The complex value of every product, star and inclusion row."""
        return tuple(turns(rows[-2], self.N, rows[-1])
                     for rows in (self.products, self.stars, self.inclusions))

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

    def fiber_violations(self) -> list:
        return list(self.geometry.fibers)


def _table(rows, N: int):
    """A table's rows sorted by their first column, read-only: the point
    columns intp, the exponents held as fellsem.action.held holds them."""
    *cols, K, V = rows
    cols = [np.asarray(c, dtype=np.intp) for c in cols]
    K = held(K, N)
    V = None if V is None or not (K == NOT_ANGLE).any() else np.asarray(V, dtype=complex)
    if (cols[0][1:] < cols[0][:-1]).any():
        order = np.argsort(cols[0], kind="stable")
        cols, K, V = [c[order] for c in cols], K[order], None if V is None else V[order]
    _freeze(*cols, K, *(() if V is None else (V,)))
    return (*cols, K, V)


def _expand(start, count, keys):
    """For each key in turn, the rows start[key] .. start[key] + count[key]:
    the position of the key and the row, one pair per row."""
    n = count[keys]
    b = np.repeat(np.arange(len(keys)), n)
    return b, np.repeat(start[keys] - _starts(n), n) + np.arange(len(b))


class Geometry:
    """A bundle's rows without their scalars: the point columns of its
    products (pair, x, y, z), stars (s, x, z) and inclusions (pair, x, z).
    All that the checks read of these alone is built here when first read,
    read-only, and in `kept` each family as Lookup.compare compiles it.
    build_bundle's geometry is its frame's (Frame.bundle).  `tables` are
    the rows with their scalars, read for `live` alone (None: none zero)."""

    def __init__(self, S: InverseSemigroup, points, products, stars, inclusions, tables=None):
        self.S, self.T, self.leq, self.points = S, S.cayley, S.order, tuple(tuple(p) for p in points)
        self.products, self.stars, self.inclusions, self.tables = products, stars, inclusions, tables
        self.rows, self.kept = sum(len(t[0]) for t in (products, stars, inclusions)), {}

    @cached_property
    def live(self):
        """Per table, the rows whose scalar is not zero; None if no row's is."""
        live = [K >= 0 if V is None else (K >= 0) | (K == NOT_ANGLE) & (V != 0)
                for *_, K, V in self.tables or ()]
        return None if all(a.all() for a in live) else live

    cs = cached_property(lambda self: _freeze(np.array([len(p) for p in self.points], dtype=np.intp)))
    off = cached_property(lambda self: _freeze(_starts(self.cs)))
    M = cached_property(lambda self: sum(map(len, self.points)))
    W = cached_property(lambda self: max([1, *map(len, self.points)]))  # the widest fiber
    slot_s = cached_property(lambda self: _freeze(np.repeat(np.arange(self.S.n), self.cs)))
    slot_x = cached_property(lambda self: _freeze(np.arange(self.M) - self.off[self.slot_s]))
    inv = cached_property(lambda self: _freeze(np.array(self.S.inv, dtype=np.intp).reshape(self.S.n)))
    canonical = cached_property(lambda self: _freeze(  # canonical_multipliers' exponents, mod 1
        np.where(np.arange(self.W) < self.cs[:, None], 0, OUTSIDE).astype(_exponent_dtype(1))))

    @cached_property
    def spans(self) -> tuple:
        """Per table, each key's first row and count of rows."""
        n = self.S.n
        return tuple(_freeze(_starts(c), c) for c in (
            np.bincount(rows[0], minlength=k) for rows, k in
            zip((self.products, self.stars, self.inclusions), (n * n, n, n * n))))

    @cached_property
    def pairs(self):
        """Every pair of points x of fiber s and y of fiber t, as flat
        arrays s, t, x, y in that order; pair k is product lookup k."""
        n, cs = self.S.n, self.cs
        sizes = np.outer(cs, cs).ravel()
        key = np.repeat(np.arange(n * n), sizes)
        k = np.arange(len(key)) - _starts(sizes)[key]
        s, t = key // n, key % n
        return _freeze(s, t, k // cs[t], k % cs[t])

    @cached_property
    def below(self):
        """Every s <= t with a point x of fiber s, as flat arrays s, t, x
        in that order."""
        lo, hi = np.nonzero(self.leq)
        e = np.repeat(np.arange(len(lo)), self.cs[lo])
        return _freeze(lo[e], hi[e], np.arange(len(e)) - _starts(self.cs[lo])[e])

    @cached_property
    def fibers(self) -> tuple:
        """The rows that leave their fibers or repeat another row's key (s,
        t, x, y), (s, x) or (s, t, x): product rows of (s, t) and star rows
        of s, row by row of the semigroup, then inclusion rows."""
        n, lab, cs, T, W = self.S.n, self.S.label, self.cs, self.T.ravel(), self.W

        def bad(first, rest, width, *points):
            """First columns of rows with a point (x, fiber) outside or a repeated key."""
            out = np.any([(x < 0) | (x >= cs[fiber]) for x, fiber in points], axis=0)
            key = np.sort((first * width + rest)[~out])
            return np.concatenate([first[out], key[1:][key[1:] == key[:-1]] // width])

        pair, x, y, z = self.products
        p = bad(pair, x * W + y, W * W, (x, pair // n), (y, pair % n), (z, T[pair]))
        grid = np.zeros(n * (n + 1), dtype=bool)  # (s, t) at s (n + 1) + t, then s's stars
        grid[p + p // n] = True
        fiber, x, z = self.stars
        grid[bad(fiber, x, W, (x, fiber), (z, self.inv[fiber])) * (n + 1) + n] = True
        out = [("star-fiber", lab(s)) if t == n else ("product-fiber", (lab(s), lab(t)))
               for s, t in (divmod(k, n + 1) for k in np.flatnonzero(grid))]
        pair, x, z = self.inclusions
        for p in np.unique(bad(pair, x, W, (x, pair // n), (z, pair % n))):
            out.append(("inclusion-fiber", (lab(p // n), lab(p % n))))
        return tuple(out)

    @cached_property
    def lookups(self) -> tuple:
        """poff, ioff and the start of each lookup in one run of keys: the
        products by (s, t, x, y) at poff[s, t] + x c_t + y, the stars by
        slot, j(t, s) by ioff[s, t] + x, each with a last key for zero; then
        each key's point z (NOWHERE for zero) and flat row: the products',
        stars' and inclusions' rows in turn, then `rows` for zero."""
        n, cs, M = self.S.n, self.cs, self.M
        sizes = np.outer(cs, cs).ravel()
        poff, ioff = _starts(sizes).reshape(n, n), _starts(np.repeat(cs, n)).reshape(n, n)
        (pair, x, y, z), (fiber, sx, sz), (ipair, ix, iz) = self.products, self.stars, self.inclusions
        start = np.cumsum([0, sizes.sum() + 1, M + 1, n * M + 1])
        at = np.concatenate([poff.ravel()[pair] + x * cs[pair % n] + y, start[1] + self.off[fiber] + sx,
                             start[2] + ioff.ravel()[ipair] + ix])
        Z, R = np.full(start[3], NOWHERE, dtype=np.intp), np.full(start[3], self.rows, dtype=np.intp)
        Z[at] = np.concatenate([z, sz, iz] if self.live is None else
                               [np.where(live, c, NOWHERE) for live, c in zip(self.live, (z, sz, iz))])
        R[at] = np.arange(self.rows)
        return _freeze(poff, ioff, start, Z, R)

    def product(self, s, t, x, y):
        """delta_x in fiber s times delta_y in fiber t, as (z, key); a key
        past the lookups (one made from NOWHERE) reads zero."""
        key = self.lookups[0][s, t] + x * self.cs[t] + y
        return self.lookups[3].take(key, mode="clip"), key

    def star(self, s, x):
        """The adjoint of delta_x in fiber s."""
        key = self.lookups[2][1] + self.off[s] + x
        return self.lookups[3].take(key, mode="clip"), key

    def include(self, s, t, x):
        """j(t, s) of delta_x in fiber s."""
        key = self.lookups[2][2] + self.lookups[1][s, t] + x
        return self.lookups[3].take(key, mode="clip"), key

    @cached_property
    def generators(self) -> np.ndarray:
        """generating_set over the slots (see Lookup.middle), walking the
        slots of the fibers of S's generators and then every slot, a
        product reaching a slot unless it is zero."""
        T, ps, px, off = self.T, self.slot_s, self.slot_x, self.off

        def product(a, g):
            s, t = ps[a][:, None], ps[g][None, :]
            z, _ = self.product(s, t, px[a][:, None], px[g][None, :])
            return np.where(z != NOWHERE, off[T[s, t]] + z, -1)

        order = np.concatenate([np.flatnonzero(np.isin(ps, self.S.generators)), np.arange(self.M)])
        return _freeze(generating_set(product, order, self.M))

    @cached_property
    def classes(self) -> tuple:
        """classify_bundle's reads of the rows alone: the pairs (s, t) whose
        product rows do not reach exactly the points of fiber st, whether
        each fiber is regular, and the rows of delta_x delta_y and delta_y
        delta_x in the fibers of idempotents, as a 2 x count array, or None
        if one is missing or the two land on different points."""
        S, n, T = self.S, self.S.n, self.T.ravel()
        pair, x, y, z = self.products
        inside = (z >= 0) & (z < self.cs[T[pair]])
        hit = np.zeros((n * n, self.W), dtype=bool)
        hit[pair[inside], z[inside]] = True
        reached = (hit.sum(axis=1) == self.cs[T]) & (np.bincount(pair[~inside], minlength=n * n) == 0)
        unsat = tuple((S.label(p // n), S.label(p % n)) for p in np.flatnonzero(~reached))
        idem = np.zeros(n * n, dtype=bool)
        idem[np.array(S.idem, dtype=np.intp) * (n + 1)] = True
        r = np.flatnonzero(idem[pair])
        row = dict(zip(zip(pair[r].tolist(), x[r].tolist(), y[r].tolist()), range(len(r))))  # a key's last
        i, j, at = list(row.values()), [row.get((p, c, a), -1) for p, a, c in row], z[r].tolist()
        swap = _freeze(r[[i, j]]) if all(b >= 0 and at[a] == at[b] for a, b in zip(i, j)) else None
        # the constant-one multiplier times a point mass is that point mass's
        # row, so it generates fiber s from either side iff the rows cover it
        ar = np.arange(n)
        regular = reached[ar * n + T[self.inv * n + ar]] & reached[T[ar * n + self.inv] * n + ar]
        return unsat, dict(zip(map(S.label, ar.tolist()), regular.tolist())), swap


def _with_scalars(name):
    """A Lookup method: the geometry's lookup `name`, with the scalars."""
    return lambda self, *args: self._scalars(*getattr(self.G, name)(*args))


class Lookup:
    """A bundle's scalars at the keys of its geometry's lookups: exponents
    mod N in K, complex values in V (None if `exact`), zero's at a key with
    no row.  product, star and include are the geometry's lookups, with
    scalars (z, K, V).  The families need the rows in their fibers."""

    def __init__(self, B: Bundle, N: int, exact: bool):
        self.G, self.N, self.exact, self.products = B.geometry, N, exact, B.products  # not B: no cycle
        R = self.G.lookups[4]
        K = [widen(t[-2], B.N, N) for t in (B.products, B.stars, B.inclusions)]
        self.K = np.concatenate([*K, [NOT_ANGLE]], dtype=_exponent_dtype(N)).take(R)
        self.V = None if exact else np.concatenate([*B.values, [0j]]).take(R)

    def _scalars(self, z, key):
        return z, self.K.take(key, mode="clip"), None if self.exact else self.V.take(key, mode="clip")

    product, star, include = (_with_scalars(name) for name in ("product", "star", "include"))

    def scaled(self, z, *factors):
        """The point masses at z scaled by the product of the factors, each
        a (K, V) pair.  Exponents are reduced mod N only when compared: a
        comparison (far) of two sums has at most five terms, one positive
        and four negative in the star laws, which the exponents' width holds
        (see the width table in fellsem.action)."""
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

    def compare(self, key, sides, tol) -> np.ndarray:
        """far of the two sides of each instance of a family.  sides() makes
        each from the geometry, (z, factors): the point masses at z scaled
        by each factor (keys, sign), conjugated where sign is -1.  Exact, a
        family compiles to where the points agree and are not zero, where
        they differ and one is not zero, and the signed keys whose exponents
        must sum to 0 mod N (at most two positive and four negative: each
        partial sum fits the width); the geometry keeps it under `key`
        (None: never) when it is read again and scans at most CHUNK entries."""
        G = self.G
        if not self.exact or (got := G.kept.get(key)) is None:
            (zp, fp), (zq, fq) = sides()
            if not self.exact:
                return self.far(self._side(zp, fp), self._side(zq, fq), tol)
            at_p, at_q = zp != NOWHERE, zq != NOWHERE
            got = (zp == zq) & at_p, (zp != zq) & (at_p | at_q), (*fp, *[(keys, -sign) for keys, sign in fq])
            if key is not None and zp.size <= CHUNK and key in G.kept:  # read before: keep it
                G.kept[key] = got
                _freeze(*got[:2], *(keys for keys, _ in got[2]))
            elif key is not None and zp.size <= CHUNK:
                G.kept[key] = None
        same, apart, terms = got
        total = 0
        for keys, sign in terms:
            k = self.K.take(keys, mode="clip")
            total = total + k if sign > 0 else total - k
        bad = same & (mod(total, self.N) != 0)
        return bad | apart if 1.0 > tol else bad

    def _side(self, z, factors):  # a side of a non-exact compare as a scaled point mass (z, K, V)
        scalars = [self._scalars(z, keys)[1:] for keys, _ in factors]
        scalars = [self.conj(*k) if sign < 0 else k for k, (_, sign) in zip(scalars, factors)]
        return self.scaled(z, *scalars) if scalars else (z, 0, 1.0)

    # -- the exact families, on point masses

    def exact_violations(self, tol) -> list:
        """Associativity, then involutivity and anti-multiplicativity of the
        star, then the inclusion families."""
        return self._associativity(tol) + self._star_laws(tol) + self._inclusion_laws(tol)

    @property
    def middle(self) -> np.ndarray:
        """The slots whose point masses are the middle factors of Light's
        test (see _associativity): every slot when the full scan is one
        chunk, or when a product scalar is not an angle and so is compared
        within tol; else the geometry's generators."""
        G = self.G
        live = G.lookups[3][:G.lookups[2][1]] != NOWHERE  # the product keys' points
        if G.M ** 3 <= CHUNK or not self.exact and (self.K[:len(live)][live] < 0).any():
            return np.arange(G.M)
        return G.generators

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
        G, middle = self.G, self.middle
        q = self.nonassociative(tol, middle)
        if q.size and len(middle) < G.M:
            q = self.nonassociative(tol, np.arange(G.M))
        ps, px = G.slot_s, G.slot_x
        q = q[:, np.lexsort((px[q[2]], px[q[1]], px[q[0]], ps[q[2]], ps[q[1]], ps[q[0]]))]
        lab, pts = G.S.label, G.points
        return [("associativity", (lab(r), lab(s), lab(t), pts[r][x], pts[s][y], pts[t][z]))
                for r, s, t, x, y, z in zip(*ps[q], *px[q])]

    def nonassociative(self, tol, middle) -> np.ndarray:
        """The slots (a, b, c), b in `middle`, of the point masses x, y and
        z for which (delta_x delta_y) delta_z and delta_x (delta_y delta_z)
        differ, as a 3 x count array; chunked over the slots a."""
        G = self.G
        M, T, ps, px = G.M, G.T, G.slot_s, G.slot_x
        s, y = ps[middle, None], px[middle, None]
        t, z = ps[None, :], px[None, :]
        found = [np.empty((3, 0), dtype=np.intp)]
        step = max(1, CHUNK // max(1, len(middle) * M))
        for a in range(0, M, step):
            def sides(a=a):
                r, x = ps[a:a + step, None, None], px[a:a + step, None, None]
                xy, yz = G.product(r, s, x, y), G.product(s, t, y, z)
                left = G.product(T[r, s], t, xy[0], z)
                right = G.product(r, T[s, t], x, yz[0])
                return (left[0], ((xy[1], 1), (left[1], 1))), (right[0], ((yz[1], 1), (right[1], 1)))
            key = ("associativity", middle.tobytes()) if step >= M else None
            i, j, k = np.nonzero(self.compare(key, sides, tol))
            found.append(np.stack([a + i, middle[j], k]))
        return np.concatenate(found, axis=1)

    def _star_laws(self, tol) -> list:
        """x** = x on every slot, then (xy)* = y* x* on every pair of slots
        in the order (s, t, x, y)."""
        G = self.G
        T, inv, ps, px = G.T, G.inv, G.slot_s, G.slot_x
        lab, pts = G.S.label, G.points

        def involutive():
            sx = G.star(ps, px)
            back = G.star(inv[ps], sx[0])
            return (back[0], ((sx[1], -1), (back[1], 1))), (px, ())

        bad = self.compare("involutive", involutive, tol)
        out = [("involutive", (lab(s), pts[s][x])) for s, x in zip(ps[bad], px[bad])]
        s, t, x, y = G.pairs

        def anti():
            xy = G.product(s, t, x, y)
            lhs = G.star(T[s, t], xy[0])
            sy, sx = G.star(t, y), G.star(s, x)
            rhs = G.product(inv[t], inv[s], sy[0], sx[0])
            return (lhs[0], ((xy[1], -1), (lhs[1], 1))), (rhs[0], ((sy[1], 1), (sx[1], 1), (rhs[1], 1)))

        bad = self.compare("anti-multiplicative", anti, tol)
        out += [("anti-multiplicative", (lab(s), lab(t), pts[s][x], pts[t][y]))
                for s, t, x, y in zip(s[bad], t[bad], x[bad], y[bad])]
        return out

    def _inclusion_laws(self, tol) -> list:
        """The six inclusion families on every point x of fiber s, s <= t:
        isometric, identity, functorial over the r between, star, then
        products with every point y of every fiber u on the left and on the
        right."""
        G = self.G
        T, inv, ps, px = G.T, G.inv, G.slot_s, G.slot_x
        s, t, x = G.below
        jz, jr = G.include(s, t, x)
        lab, pts = G.S.label, G.points

        def at(i):
            return lab(s[i]), lab(t[i]), pts[s[i]][x[i]]

        found = []  # (sort key, violation)
        iso = (jz == NOWHERE) & (1.0 > tol)
        if not self.exact:
            _, K, V = self._scalars(jz, jr)
            iso |= (K < 0) & (np.abs(np.abs(V) - 1) > tol)
        found += [((i, 0), ("inclusion-isometric", at(i))) for i in np.flatnonzero(iso)]
        ident = (s == t) & self.compare("inclusion-identity", lambda: ((jz, ((jr, 1),)), (x, ())), tol)
        found += [((i, 1), ("inclusion-identity", at(i)[::2])) for i in np.flatnonzero(ident)]
        i, r = np.nonzero(G.leq[s] & G.leq.T[t])

        def functorial():
            inner = G.include(s[i], r, x[i])
            outer = G.include(r, t[i], inner[0])
            return (outer[0], ((inner[1], 1), (outer[1], 1))), (jz[i], ((jr[i], 1),))

        bad = self.compare("inclusion-functorial", functorial, tol)
        found += [((i, 2, r), ("inclusion-functorial", (at(i)[0], lab(r), *at(i)[1:])))
                  for i, r in zip(i[bad], r[bad])]

        def star():
            lhs, sx = G.star(t, jz), G.star(s, x)
            rhs = G.include(inv[s], inv[t], sx[0])
            return (lhs[0], ((jr, -1), (lhs[1], 1))), (rhs[0], ((sx[1], 1), (rhs[1], 1)))

        bad = self.compare("inclusion-star", star, tol)
        found += [((i, 3), ("inclusion-star", at(i))) for i in np.flatnonzero(bad)]

        u, y = ps[None, :], px[None, :]
        step = max(1, CHUNK // max(1, G.M))
        orders = (("inclusion-product-left", lambda a, b: (a, b)),  # delta_y of fiber u on the right
                  ("inclusion-product-right", lambda a, b: (b, a)))
        for a in range(0, len(s), step):
            s_, t_, x_, jz_, jr_ = (v[a:a + step, None] for v in (s, t, x, jz, jr))
            for side, (tag, o) in enumerate(orders):
                def sides(o=o):
                    lhs, m = G.product(*o(t_, u), *o(jz_, y)), G.product(*o(s_, u), *o(x_, y))
                    rhs = G.include(T[o(s_, u)], T[o(t_, u)], m[0])
                    return (lhs[0], ((jr_, 1), (lhs[1], 1))), (rhs[0], ((m[1], 1), (rhs[1], 1)))
                bad = self.compare(tag if step >= len(s) else None, sides, tol)
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
        G, N, exact = self.G, self.N, self.exact
        n, inv, W, lab = G.S.n, G.inv, G.W, G.S.label

        def unit(K, V):
            return True if exact else (K >= 0) | (np.abs(np.abs(V) - 1) <= tol)

        def positive(K, V):
            return mod(K, N) == 0 if exact else np.where(
                K >= 0, mod(K, N) == 0, (np.abs(V.imag) <= tol) & (V.real >= -tol))

        pair, x, _, z, K, V = self.products
        live = np.ones(len(pair), dtype=bool) if G.live is None else G.live[0]
        pointwise = not any((np.diff(np.sort((pair * W + k)[live])) == 0).any() for k in (x, z))
        if (big := pointwise & (K == NOT_ANGLE)).any():  # where V holds the values
            big &= np.abs(V) > 1 + tol
        out = [("submultiplicative", (lab(p // n), lab(p % n))) for p in np.unique(pair[big])]
        if (got := G.kept.get("norms")) is None:  # each x, y of one fiber s, x at slot i
            i, y = np.nonzero(np.arange(W) < G.cs[G.slot_s][:, None])
            s, x = G.slot_s[i], G.slot_x[i]
            u = G.star(s, x)
            got = _freeze(i, y, s, x, x == y, *u, *G.product(inv[s], s, u[0], y))
            if len(i) <= CHUNK:
                G.kept["norms"] = got
        i, y, s, x, diag, *keys = got
        u, *a = self._scalars(*keys[:2])
        hit = np.unique((s * W + u)[diag & (u != NOWHERE) & unit(*a)])
        iso = (np.bincount(hit // W, minlength=n) == G.cs) & (G.cs == G.cs[inv])
        out += [("star-isometric", lab(t)) for t in np.flatnonzero(~iso)]
        m = self._scalars(*keys[2:])
        z, *c = self.scaled(m[0], a, m[1:])
        live, pos = z != NOWHERE, positive(*c)
        if pointwise:
            out += [("cstar-identity", lab(t)) for t in np.unique(s[diag & ~(live & unit(*c))])]
            bad = live & ~(diag & pos)
        else:
            proj = np.zeros(G.M + 1, dtype=bool)  # delta_z* delta_z = b delta_z, b > 0
            proj[i[diag]] = ((z == x) & pos)[diag]
            bad = diag & live & ~pos & proj[np.where(live, G.off[G.T[inv[s], s]] + z, G.M)]
        out += [("positivity", (lab(k // W), G.points[G.T[inv[k // W], k // W]][k % W]))
                for k in np.unique((s * W + z)[bad])]
        return out


# ---------------------------------------------------------------------------
# the builders

def frame_rows(F: Frame) -> tuple:
    """build_bundle's rows of a frame alone (Frame.bundle): their Geometry,
    no scalar zero, and the flat positions in W of each row's omega;
    KeyError where a row needs an undefined theta."""
    n, m, T, inv, fib = F.n, F.m, F.T, F.inv, F.fib
    num = np.where(fib, np.cumsum(fib, axis=1) - 1, -1)  # [s, i]: point i in fiber s
    points = [[x for x, inside in zip(F.points, row) if inside] for row in fib.tolist()]
    at, cs, ct, cst = F.slots
    if (ct < 0).any():  # theta_s^-1 undefined at y
        raise KeyError(F.points[at[np.argmax(ct < 0)] % m])
    s, x = index_pairs(fib[inv])
    if ((image := F.th[s, x]) < 0).any():
        raise KeyError(F.points[x[np.argmax(image < 0)]])
    lo, hi = index_pairs(F.leq)
    i, y = index_pairs(fib[lo])
    r, t = lo[i], hi[i]
    rows = ((at // m, num.take(cs), num.take(ct), num.take(cst)), (s, num[s, image], num[inv[s], x]),
            (r * n + t, num[r, y], num[t, y]))
    places = at, (inv[s] * n + s) * m + x, (t * n + T[inv[r], r]) * m + y
    _freeze(*(c for cols in rows for c in cols), *places)
    return Geometry(F.S, points, *rows), places


def build_bundle(A: TwistedAction) -> Bundle:
    """The bundle of a twisted action: the fiber over s is functions on U(ss*).

    Product:    (f.g)(y) = f(y) g(theta_s^{-1} y) omega(s,t)(y)
    Involution: f*(x)    = conj(f(theta_s x)) conj(omega(s*,s)(x))
    Inclusion:  j(t,s)(f)(y) = f(y) conj(omega(t, s*s)(y)), zero-extended.

    The rows' points are the frame's (Frame.bundle), and so is their
    geometry unless a scalar is zero; the products are its live omega
    slots.  The scalars are three takes of the action's exponents.
    """
    W, N = A.W.reshape(-1), A.N
    G, places = A.frame.bundle

    def scalars(at, conj):  # omega at `at`, conjugated if conj; zero off the carrier
        k = W.take(at)
        if not (k < 0).any():
            return mod(-k, N) if conj else k, None
        V = np.zeros(len(at), dtype=complex) if A.V is None else np.where(k == NOT_ANGLE, A.V.take(at), 0)
        return np.where(k >= 0, mod(-k if conj else k, N), NOT_ANGLE), np.conj(V) if conj else V

    tables = [(*cols, *scalars(at, conj)) for cols, at, conj in
              zip((G.products, G.stars, G.inclusions), places, (False, True, True))]
    _freeze(*(a for *_, K, V in tables for a in (K, V) if a is not None))
    if any(t[-1] is not None for t in tables):  # a zero scalar needs a geometry of the bundle's own
        own = Geometry(A.S, G.points, G.products, G.stars, G.inclusions, tables)
        G = G if own.live is None else own
    B = Bundle.__new__(Bundle)
    B._hold(G, N, tables, "action", {"A": A})
    return B


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
    unsat, regular, swap = B.geometry.classes
    semi_abelian = swap is not None
    if semi_abelian:  # the rows of delta_x delta_y and delta_y delta_x: one scalar
        same = [a == b >= 0 for a, b in zip(*B.products[4][swap].tolist())]
        semi_abelian = all(same) or bool((same | (np.abs(np.subtract(*B.values[0][swap])) <= tol)).all())
    return {"saturated": not unsat, "unsaturated_pairs": list(unsat), "semi_abelian": semi_abelian,
            "regular": dict(regular),
            "witness": canonical_multipliers(B) if all(regular.values()) else None}


def canonical_multipliers(B) -> tuple:
    """The constant-one multiplier family: exponent zero on every slot."""
    return 1, B.canonical, None


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
    S, n, W, cs = B.S, B.S.n, B.W, B.cs
    info = classify_bundle(B)
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
    s = np.repeat(ar, cs[T[inv, ar]])
    x = np.arange(len(s)) - _starts(cs[T[inv, ar]])[s]
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
    live = np.arange(W) < cs[e][:, None]
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
