"""Finite discrete groupoids, bisection semigroups and circle 2-cocycles.

Arrows compose right to left: comp(a, b) is "a after b" and is defined
exactly when src(a) = rng(b).

A FiniteGroupoid holds its composition as index arrays, built when it is
made: the composable pairs with their products and their numbering, and the
pairs each composable triple reads.  A TwoCocycle is its exponents mod N
over the composable pairs, the encoding actions and bundles use for their
scalars (see fellsem.action): the cocycle identity is a gather and compare
over the triples, enumeration checks its candidates as rows of one exponent
matrix, and the readers (action_from_cocycle, bundle.SectionBundle,
reps.regular_covariant_rep) gather the exponents.  Bisection products are
index arithmetic on bisections held as the arrow at each source.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from fellsem.action import (CHUNK, OUTSIDE, Frame, TwistedAction, _exponent_dtype, exponents,
                            germ_groupoid, germ_map_check, held, mod, widen)
from fellsem.angles import as_frac
from fellsem.isg import first_true, verify_inverse_semigroup

MAX_SLOTS = 12  # free composable pairs enumerate_cocycles will enumerate over


class GroupoidError(ValueError):
    pass


class NotComposable(GroupoidError):
    pass


class TooManyArrows(GroupoidError):
    pass


class NotABisection(GroupoidError):
    pass


class NotWide(GroupoidError):
    pass


class FiniteGroupoid:
    """Arrows 0..m-1 over a finite object set, with partial composition.

    The index arrays, built when it is made, with -1 for an undefined
    arrow or pair (mul and pair_index have one more row and column, of -1,
    which an index -1 reads):
    src_i, rng_i   the endpoints of each arrow, numbered objects first;
    mul            [a, b]: the arrow ab;
    pair_a, pair_b, pair_ab
                   the composable pairs (a, b) in row-major order, and ab;
    pair_index     [a, b]: the number of the pair (a, b);
    triples        four arrays, whose k-th entries are the pairs ab, (ab)c, bc
                   and a(bc) of the k-th composable triple (a, b, c), in
                   row-major order;
    normal         the pairs (a, unit at src a), (unit at rng a, a) of each
                   arrow a in turn.
    """

    def __init__(self, objects, src, rng, comp, labels=None):
        self.objects = list(objects)
        self.src = list(src)
        self.rng = list(rng)
        self.comp = dict(comp)
        self.m = len(self.src)
        self.labels = labels if labels is not None else [str(i) for i in range(self.m)]
        self.unit = {}
        self.inv = [-1] * self.m
        self._frame = None  # see _bisection_frame
        self._derive()

    def _derive(self):
        for a in range(self.m):
            if self.src[a] == self.rng[a] and self.comp.get((a, a)) == a:
                # a candidate unit; confirmed by neutrality below
                x = self.src[a]
                if all(self.comp.get((b, a)) == b for b in range(self.m) if self.src[b] == x):
                    self.unit[x] = a
        for a in range(self.m):
            for b in range(self.m):
                if (self.comp.get((a, b)) == self.unit.get(self.rng[a])
                        and self.comp.get((b, a)) == self.unit.get(self.src[a])):
                    self.inv[a] = b
                    break
        m, ar = self.m, np.arange(self.m)
        ends = dict.fromkeys([*self.objects, *self.src, *self.rng])
        ends = self.object_index = {x: i for i, x in enumerate(ends)}
        self.src_i = np.array([ends[x] for x in self.src], dtype=np.intp).reshape(m)
        self.rng_i = np.array([ends[x] for x in self.rng], dtype=np.intp).reshape(m)
        mul = self.mul_table = np.full((m + 1, m + 1), -1, dtype=np.intp)
        if self.comp:
            a, b = np.array(list(self.comp), dtype=np.intp).reshape(-1, 2).T
            mul[a, b] = list(self.comp.values())
        follows = self.src_i[:, None] == self.rng_i[None, :]  # [a, b]: a after b is defined
        a, b = np.nonzero(follows)
        self.pair_a, self.pair_b, self.pair_ab = a, b, mul[a, b]
        index = self.pair_index = np.full((m + 1, m + 1), -1, dtype=np.intp)
        index[a, b] = np.arange(len(a))
        p, c = np.nonzero(follows[b])
        a, b = a[p], b[p]
        self.triples = (p, index[mul[a, b], c], index[b, c], index[a, mul[b, c]])
        unit = np.array([self.unit.get(x, -1) for x in ends], dtype=np.intp)
        self.normal = np.empty(2 * m, dtype=np.intp)
        self.normal[0::2], self.normal[1::2] = index[ar, unit[self.src_i]], index[unit[self.rng_i], ar]
        self.units = np.zeros(m, dtype=bool)
        self.units[list(self.unit.values())] = True

    def composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.rng[b]

    def mul(self, a: int, b: int) -> int:
        try:
            return self.comp[(a, b)]
        except KeyError:
            raise NotComposable(f"arrows {a} and {b} are not composable") from None

    def composable_pairs(self):
        return list(zip(self.pair_a.tolist(), self.pair_b.tolist()))

    def arrows(self):
        return range(self.m)

    def is_unit(self, a: int) -> bool:
        return a in self.unit.values()

    def to_json(self):
        return {
            "objects": [str(x) for x in self.objects],
            "arrows": [{"id": self.labels[a], "src": str(self.src[a]), "rng": str(self.rng[a])}
                       for a in range(self.m)],
            "comp": [[self.labels[a], self.labels[b], self.labels[c]]
                     for (a, b), c in sorted(self.comp.items())],
        }

    @classmethod
    def from_json(cls, data) -> "FiniteGroupoid":
        objects = data["objects"]
        labels = [arr["id"] for arr in data["arrows"]]
        idx = {lab: i for i, lab in enumerate(labels)}
        src = [arr["src"] for arr in data["arrows"]]
        rng = [arr["rng"] for arr in data["arrows"]]
        comp = {(idx[a], idx[b]): idx[c] for a, b, c in data["comp"]}
        return verify_groupoid(cls(objects, src, rng, comp, labels=labels))


def verify_groupoid(G: FiniteGroupoid) -> FiniteGroupoid:
    """Check groupoid laws; raise a diagnostic on the first violation."""
    for (a, b), c in G.comp.items():
        if not G.composable(a, b):
            raise NotComposable(f"comp defined on non-composable ({a}, {b})")
        if G.src[c] != G.src[b] or G.rng[c] != G.rng[a]:
            raise GroupoidError(f"comp({a},{b})={c} has wrong endpoints")
    if (G.pair_ab < 0).any():
        p = first_true(G.pair_ab < 0)[0]
        raise GroupoidError(f"comp missing on composable pair ({G.pair_a[p]}, {G.pair_b[p]})")
    ab, abc, bc, a_bc = G.triples
    wrong = G.pair_ab[abc] != G.pair_ab[a_bc]
    if wrong.any():
        k = first_true(wrong)[0]
        a, b, c = G.pair_a[ab[k]], G.pair_b[ab[k]], G.pair_b[bc[k]]
        raise GroupoidError(f"composition not associative at ({a}, {b}, {c})")
    for x in G.objects:
        if x not in G.unit:
            raise GroupoidError(f"object {x} has no unit arrow")
    for a in G.arrows():
        if G.inv[a] < 0:
            raise GroupoidError(f"arrow {a} has no inverse")
    return G


def group_groupoid(table, labels=None) -> FiniteGroupoid:
    """A finite group presented as a one-object groupoid."""
    n = len(table)
    comp = {(a, b): table[a][b] for a in range(n) for b in range(n)}
    return verify_groupoid(FiniteGroupoid(["*"], ["*"] * n, ["*"] * n, comp, labels=labels))


def cyclic_group(n: int) -> FiniteGroupoid:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return group_groupoid(table, labels=[f"g{a}" for a in range(n)])


def pair_groupoid(points) -> FiniteGroupoid:
    """Arrows (i, j) from j to i over the given point set."""
    pts = list(points)
    arrows = [(i, j) for i in pts for j in pts]
    idx = {a: k for k, a in enumerate(arrows)}
    src = [j for (_, j) in arrows]
    rng = [i for (i, _) in arrows]
    comp = {(idx[(i, j)], idx[(j2, k)]): idx[(i, k)]
            for (i, j) in arrows for (j2, k) in arrows if j == j2}
    labels = [f"{i}<{j}" for (i, j) in arrows]
    return verify_groupoid(FiniteGroupoid(pts, src, rng, comp, labels=labels))


def transitive_z2_groupoid() -> FiniteGroupoid:
    """The transitive groupoid on two objects with isotropy of order two.

    Arrows (i, e, j) from j to i carrying a sign e; eight arrows total.
    """
    arrows = [(i, e, j) for i in (0, 1) for e in (0, 1) for j in (0, 1)]
    idx = {a: k for k, a in enumerate(arrows)}
    src = [j for (_, _, j) in arrows]
    rng = [i for (i, _, _) in arrows]
    comp = {}
    for (i, e, j) in arrows:
        for (j2, f, k) in arrows:
            if j == j2:
                comp[(idx[(i, e, j)], idx[(j2, f, k)])] = idx[(i, (e + f) % 2, k)]
    labels = [f"{i}<{'+' if e == 0 else '-'}<{j}" for (i, e, j) in arrows]
    return verify_groupoid(FiniteGroupoid([0, 1], src, rng, comp, labels=labels))


# ---------------------------------------------------------------------------
# bisections

def is_bisection(G: FiniteGroupoid, arrows) -> bool:
    arrows = list(arrows)
    srcs = [G.src[a] for a in arrows]
    rngs = [G.rng[a] for a in arrows]
    return len(set(srcs)) == len(arrows) and len(set(rngs)) == len(arrows)


def all_bisections(G: FiniteGroupoid):
    if G.m > 12:
        raise TooManyArrows(f"{G.m} arrows; full bisection enumeration capped at 12")
    out = [frozenset()]
    # group arrows by source; pick at most one per source, range-injective
    by_src = {}
    for a in G.arrows():
        by_src.setdefault(G.src[a], []).append(a)
    sources = list(by_src)

    def extend(i, chosen, used_rng):
        if i == len(sources):
            if chosen:
                out.append(frozenset(chosen))
            return
        extend(i + 1, chosen, used_rng)
        for a in by_src[sources[i]]:
            r = G.rng[a]
            if r not in used_rng:
                extend(i + 1, chosen + [a], used_rng | {r})

    extend(0, [], set())
    return out


def _by_source(G: FiniteGroupoid, biss) -> np.ndarray:
    """Bisections as rows over the numbered objects: the arrow with each
    source, or -1."""
    rows = np.full((len(biss), len(G.object_index)), -1, dtype=np.intp)
    arrows = [sorted(b) for b in biss]
    i = np.repeat(np.arange(len(biss)), [len(b) for b in arrows])
    a = np.array([x for b in arrows for x in b], dtype=np.intp)
    rows[i, G.src_i[a]] = a
    return rows


def _masks(G: FiniteGroupoid, rows) -> np.ndarray:
    """Each row's bisection as the bit mask of its arrows (Python integers
    past 62 arrows)."""
    bits = [1 << a for a in range(G.m)] + [0]  # an undefined arrow -1 adds 0
    return np.array(bits, dtype=np.int64 if G.m < 63 else object)[rows].sum(axis=-1)


def _products(G: FiniteGroupoid, rows) -> np.ndarray:
    """[i, j]: the row of the product of bisections i and j, which holds ab
    at the source of b for each b in j and the a in i with src a = rng b."""
    held = np.concatenate([rows, np.full((len(rows), 1), -1, dtype=np.intp)], axis=1)
    at = np.append(G.rng_i, held.shape[1] - 1)  # the range of no arrow is the column of -1
    return G.mul_table[held[:, at[rows]], rows[None]]


def _closure(G: FiniteGroupoid, rows) -> np.ndarray:
    """The rows closed under product, inverse and intersection."""
    k = rows.shape[1]
    rows = rows[np.unique(_masks(G, rows), return_index=True)[1]]
    while True:
        i, x = np.nonzero(rows >= 0)
        a = rows[i, x]
        inverse = np.full_like(rows, -1)
        inverse[i, G.rng_i[a]] = np.asarray(G.inv, dtype=np.intp)[a]
        meet = np.where(rows[:, None] == rows[None], rows[:, None], -1)
        grown = np.concatenate([rows, inverse, _products(G, rows).reshape(-1, k), meet.reshape(-1, k)])
        keep = np.unique(_masks(G, grown), return_index=True)[1]
        if len(keep) == len(rows):
            return rows
        rows = grown[keep]


def bisection_semigroup(G: FiniteGroupoid, generators=None):
    """The inverse semigroup generated by bisections of G.

    Closes the generators under product, involution and intersection, and
    always includes the empty bisection; all bisections together are
    closed already.  Products are index arithmetic on the bisections held
    by source, looked up by their bit masks.  Returns (InverseSemigroup,
    bisection list indexed by element, wide flag).  Wide means the
    bisections cover every arrow and the family is intersection-closed
    (the latter holds by construction).
    """
    if generators is None:
        rows = _by_source(G, all_bisections(G))
    else:
        gens = []
        for g in generators:
            b = frozenset(g)
            if not is_bisection(G, b):
                raise NotABisection(f"{sorted(b)} is not a bisection")
            gens.append(b)
        rows = _closure(G, _by_source(G, gens + [frozenset()]))
    arrows = [sorted(r[r >= 0].tolist()) for r in rows]
    order = sorted(range(len(rows)), key=lambda i: (len(arrows[i]), arrows[i]))
    rows, n = rows[order], len(rows)
    biss = [frozenset(arrows[i]) for i in order]
    masks = _masks(G, rows)
    by_mask = np.argsort(masks)
    want = _masks(G, _products(G, rows)).reshape(-1)
    at = np.minimum(np.searchsorted(masks[by_mask], want), n - 1)
    table = np.where(masks[by_mask][at] == want, by_mask[at], -1).reshape(n, n).tolist()
    labels = ["{" + ",".join(G.labels[a] for a in arrows[i]) + "}" for i in order]
    S = verify_inverse_semigroup(table, labels=labels)
    return S, biss, set(rows[rows >= 0].tolist()) == set(G.arrows())


def membership(G: FiniteGroupoid, sets) -> np.ndarray:
    """[s, a]: arrow a in the s-th set of arrows."""
    held = np.zeros((len(sets), G.m), dtype=bool)
    held[np.repeat(np.arange(len(sets)), [len(b) for b in sets]),
         [a for b in sets for a in b]] = True
    return held


def held_pairs(G: FiniteGroupoid, held):
    """s, t, p for every composable pair p = (a, b) with a in row s and b
    in row t of the mask held, ordered by s, a, t and b: the pairs of
    held entries, in chunks of CHUNK of them."""
    s, a = np.nonzero(held)
    step = max(1, CHUNK // max(1, len(a)))
    i, j, p = [], [], []
    for c in range(0, max(1, len(a)), step):
        pairs = G.pair_index[a[c:c + step, None], a[None, :]]
        x, y = np.nonzero(pairs >= 0)
        i.append(x + c)
        j.append(y)
        p.append(pairs[x, y])
    return s[np.concatenate(i)], s[np.concatenate(j)], np.concatenate(p)


# ---------------------------------------------------------------------------
# 2-cocycles

class TwoCocycle:
    """A normalized circle 2-cocycle: exponents K mod N over G's composable
    pairs, numbered as G.pair_index numbers them.

    The constructor encodes a mapping (a, b) -> turn (a Fraction, an int
    or 'p/q' text); a composable pair it leaves out is OUTSIDE in K, and a
    pair that is not composable is kept in `extra` (as a Fraction) for
    verify_cocycle to report.  tau(a, b) is the turn at (a, b).  N is a
    common denominator of the values, not always the least; exponents()
    reads them over the least.  K is read-only.
    """

    def __init__(self, G: FiniteGroupoid, tau):
        at, extra = {}, {}
        for (a, b), v in tau.items():
            p = G.pair_index[a, b] if 0 <= a < G.m and 0 <= b < G.m else -1
            if p >= 0:
                at[p] = as_frac(v)
            else:
                extra[(a, b)] = as_frac(v)
        N, E = exponents(list(at.values()))
        K = np.full(len(G.pair_a), OUTSIDE, dtype=E.dtype)
        K[list(at)] = E
        self._hold(G, N, K, extra)

    @classmethod
    def from_exponents(cls, G: FiniteGroupoid, N: int, K) -> "TwoCocycle":
        tau = cls.__new__(cls)
        tau._hold(G, N, held(K, N), {})
        return tau

    def _hold(self, G, N, K, extra):
        self.G, self.N, self.K, self.extra = G, N, K, extra
        K.flags.writeable = False

    def __call__(self, a: int, b: int) -> Fraction:
        G = self.G
        p = G.pair_index[a, b] if 0 <= a < G.m and 0 <= b < G.m else -1
        if p >= 0 and self.K[p] >= 0:
            return Fraction(int(self.K[p]), self.N)
        if (a, b) in self.extra:
            return self.extra[(a, b)]
        raise GroupoidError(f"cocycle missing on pair ({a}, {b})")

    def exponents(self, pairs=slice(None)):
        """N and the exponents at the given pair numbers (all by default),
        over the least modulus of those; GroupoidError at the first that
        is missing."""
        K = self.K[pairs]
        if (K < 0).any():
            p = np.arange(len(self.K))[pairs][first_true(K < 0)[0]]
            raise GroupoidError(f"cocycle missing on pair ({self.G.pair_a[p]}, {self.G.pair_b[p]})")
        d = gcd(self.N, *K.tolist())
        return (self.N // d, held(K // d, self.N // d)) if d > 1 else (self.N, K)

    @classmethod
    def trivial(cls, G: FiniteGroupoid) -> "TwoCocycle":
        return cls.from_exponents(G, 1, np.zeros(len(G.pair_a), dtype=_exponent_dtype(1)))

    @classmethod
    def coboundary(cls, G: FiniteGroupoid, c) -> "TwoCocycle":
        """tau(a,b) = c(a) c(b) conj(c(ab)) for unit-modulus c with c(unit)=1,
        c given as turns."""
        N, E = exponents([as_frac(c.get(a, 0)) for a in G.arrows()])
        return cls.from_exponents(G, N, mod(E[G.pair_a] + E[G.pair_b] - E[G.pair_ab], N))


def verify_cocycle(G: FiniteGroupoid, tau: TwoCocycle):
    """Exact check of normalization and the cocycle identity, as one
    gather and compare of exponents over G's normalization pairs and
    composable triples.

    Returns (ok, violations); each violation is a tagged tuple.
    """
    K, N = tau.K, tau.N
    if (K < 0).any() or tau.extra:
        missing = set(np.flatnonzero(K < 0).tolist())  # listed in the order of a set of the pairs
        violations = [("missing", pair) for pair in set(G.composable_pairs())
                      if G.pair_index[pair] in missing]
        return False, violations + [("extraneous", pair) for pair in tau.extra]
    p = G.normal[K[G.normal] != 0]
    violations = [("normalization", pair) for pair in zip(G.pair_a[p].tolist(), G.pair_b[p].tolist())]
    ab, abc, bc, a_bc = G.triples
    k = np.flatnonzero(mod(K[ab] + K[abc] - K[bc] - K[a_bc], N))
    violations += [("cocycle", t) for t in zip(G.pair_a[ab[k]].tolist(), G.pair_b[ab[k]].tolist(),
                                                G.pair_b[bc[k]].tolist())]
    return not violations, violations


def _digits(roots: int, width: int, step: int):
    """Every row of `width` digits mod roots, in itertools.product order,
    `step` rows at a time."""
    place = roots ** np.arange(width - 1, -1, -1, dtype=np.int64)
    total = roots ** width
    for lo in range(0, total, step):
        yield mod(np.arange(lo, min(lo + step, total), dtype=np.int64)[:, None] // place, roots)


def enumerate_cocycles(G: FiniteGroupoid, roots: int = 4):
    """All normalized cocycles with values in the given roots of unity.

    Brute force over the composable pairs not forced by normalization:
    the candidates, in itertools.product order, are rows of exponents mod
    roots, checked against the cocycle identity in chunks of CHUNK
    entries.  Guarded by MAX_SLOTS.
    """
    free = ~(G.units[G.pair_a] | G.units[G.pair_b])
    width = int(free.sum())
    if width > MAX_SLOTS:
        raise TooManyArrows(f"{width} free cocycle slots exceed cap {MAX_SLOTS}")
    ab, abc, bc, a_bc = G.triples
    out = []
    for D in _digits(roots, width, max(1, CHUNK // max(1, len(ab)))):
        K = np.zeros((len(D), len(free)), dtype=_exponent_dtype(roots))
        K[:, free] = D
        ok = (mod(K[:, ab] + K[:, abc] - K[:, bc] - K[:, a_bc], roots) == 0).all(axis=1)
        out += [TwoCocycle.from_exponents(G, roots, k) for k in K[ok]]
    return out


def coboundary_cocycles(G: FiniteGroupoid, roots: int = 4):
    """All coboundary cocycles from unit-modulus c with root-of-unity
    values, in the order the values of c first give them."""
    seen, out = set(), []
    for D in _digits(roots, G.m - int(G.units.sum()), max(1, CHUNK // max(1, len(G.pair_a)))):
        c = np.zeros((len(D), G.m), dtype=_exponent_dtype(roots))
        c[:, ~G.units] = D
        K = mod(c[:, G.pair_a] + c[:, G.pair_b] - c[:, G.pair_ab], roots)
        _, first = np.unique(K, axis=0, return_index=True)
        for k in K[np.sort(first)]:
            if (key := k.tobytes()) not in seen:
                seen.add(key)
                out.append(TwoCocycle.from_exponents(G, roots, k))
    return out


def z2_nontrivial_cocycle() -> tuple[FiniteGroupoid, TwoCocycle]:
    """The order-two group with tau(g, g) = -1."""
    G = cyclic_group(2)
    K = np.zeros(len(G.pair_a), dtype=_exponent_dtype(2))
    K[G.pair_index[1, 1]] = 1
    return G, TwoCocycle.from_exponents(G, 2, K)


# ---------------------------------------------------------------------------
# translation to twisted actions

def _bisection_frame(G: FiniteGroupoid, S, bisections):
    """The Frame of the bisections of S acting on G's objects, with s, t and
    p of the held composable pairs (held_pairs) and the column of the range
    of each ab, where tau(p) goes in W.  They depend on G, S and the
    bisections only, so G keeps the last ones built, for the next cocycle
    over the same S and equal bisections, and a slot germ recovery fills;
    the kept sets are compared with the given ones as they are."""
    given, kept = tuple(bisections[s] for s in S.elements()), G._frame and G._frame[0]
    if not kept or kept[0] != S or kept[1] != given and kept[1] != tuple(map(frozenset, given)):
        key = (S, tuple(map(frozenset, given)))
        U = {s: frozenset(G.rng[a] for a in bisections[s]) for s in S.elements()}
        theta = {s: {G.src[a]: G.rng[a] for a in bisections[s]} for s in S.elements()}
        F = Frame(S, list(G.objects), U, theta)
        s, t, p = held_pairs(G, membership(G, [bisections[s] for s in S.elements()]))
        column = np.array([F.index[y] for y in G.rng], dtype=np.intp).reshape(-1)[G.pair_a[p]]
        G._frame = [key, (F, s, t, p, column), None]
    return G._frame[1]


def action_from_cocycle(G: FiniteGroupoid, tau: TwoCocycle, S, bisections, wide=True):
    """The twisted action on the object space induced by a cocycle.

    Points are the objects of G; the bisection s acts by src -> rng along
    its arrows; omega(s, t) at the range of a product arrow ab (a in s,
    b in t) is tau(a, b), read from tau's exponents.  The ranges of the
    products ab are U(st) when S and the bisections come from
    bisection_semigroup.  Requires a wide bisection family.  Every cocycle
    over one S and bisection list shares one Frame.
    """
    if not wide:
        raise NotWide("bisection family does not cover the groupoid")
    F, s, t, p, column = _bisection_frame(G, S, bisections)
    N, K = tau.exponents()
    W = np.full((S.n, S.n, F.m), OUTSIDE, dtype=K.dtype)
    W[s, t, column] = K[p]
    return TwistedAction.from_exponents(F, N, W)


def germ_recovers_groupoid(G: FiniteGroupoid, tau: TwoCocycle, S, bisections, wide=True):
    """Whether the germ groupoid of the induced action, with its twist, is G
    with tau along the canonical map, which sends the germ of (s, x) to the
    unique arrow of the bisection s with source x.  Along it, the germ twist
    at germs with representatives (r, y) and (t, x) is tau(a, b), a and b
    their arrows, plus the coordinate K[rt, x]: a difference of values
    omega(u, e), e idempotent, each a tau(c, unit), so zero when tau is
    normalized.  So the twists are compared exactly, over the lcm of their
    moduli.  Returns (ok, mapping or counterexample), the first differing
    pair of germs as ("twist", (g, h)).
    """
    germs = germ_groupoid(action_from_cocycle(G, tau, S, bisections, wide))
    # the action's points are G's objects, numbered as G numbers them; a map
    # that passes is kept: the arrow of each germ, G's pair at each germ pair
    if (known := G._frame[2]) is None:
        ok, mapping = germ_map_check(germs, _by_source(G, [bisections[s] for s in S.elements()]), G)
        if not ok:
            return ok, mapping
        to = np.fromiter(mapping.values(), np.intp, len(mapping))
        g, h = germs.A.frame.germ_table[1][:2]
        known = G._frame[2] = to, G.pair_index[to[g], to[h]]
    (g, h, E), N, (to, pairs) = germs.twist, lcm(germs.N, tau.N), known
    if (differ := widen(E, germs.N, N) != widen(tau.K[pairs], tau.N, N)).any():
        return False, ("twist", tuple(int(v[first_true(differ)[0]]) for v in (g, h)))
    return True, dict(enumerate(to.tolist()))
