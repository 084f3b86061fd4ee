"""Finite discrete groupoids, bisection semigroups and circle 2-cocycles.

Arrows compose right to left: comp(a, b) is "a after b" and is defined
exactly when src(a) = rng(b).
"""

from __future__ import annotations

from itertools import product as iproduct

from fellsem.angles import Angle, as_angle
from fellsem.isg import verify_inverse_semigroup


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
    """Arrows 0..m-1 over a finite object set, with partial composition."""

    def __init__(self, objects, src, rng, comp, labels=None):
        self.objects = list(objects)
        self.src = list(src)
        self.rng = list(rng)
        self.comp = dict(comp)
        self.m = len(self.src)
        self.labels = labels if labels is not None else [str(i) for i in range(self.m)]
        self.unit = {}
        self.inv = [-1] * self.m
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

    def composable(self, a: int, b: int) -> bool:
        return self.src[a] == self.rng[b]

    def mul(self, a: int, b: int) -> int:
        try:
            return self.comp[(a, b)]
        except KeyError:
            raise NotComposable(f"arrows {a} and {b} are not composable") from None

    def composable_pairs(self):
        return [(a, b) for a in range(self.m) for b in range(self.m) if self.composable(a, b)]

    def composable_triples(self):
        return [(a, b, c) for a, b in self.composable_pairs()
                for c in range(self.m) if self.src[b] == self.rng[c]]

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
    for a, b in G.composable_pairs():
        if (a, b) not in G.comp:
            raise GroupoidError(f"comp missing on composable pair ({a}, {b})")
    for a, b, c in G.composable_triples():
        if G.mul(G.mul(a, b), c) != G.mul(a, G.mul(b, c)):
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


def bisection_product(G: FiniteGroupoid, s, t) -> frozenset:
    return frozenset(G.mul(a, b) for a in s for b in t if G.composable(a, b))


def bisection_inverse(G: FiniteGroupoid, s) -> frozenset:
    return frozenset(G.inv[a] for a in s)


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


def bisection_semigroup(G: FiniteGroupoid, generators=None):
    """The inverse semigroup generated by bisections of G.

    Closes the generators under product, involution and intersection, and
    always includes the empty bisection.  Returns (InverseSemigroup,
    bisection list indexed by element, wide flag).  Wide means the
    bisections cover every arrow and the family is intersection-closed
    (the latter holds by construction).
    """
    if generators is None:
        gens = all_bisections(G)
    else:
        gens = []
        for g in generators:
            b = frozenset(g)
            if not is_bisection(G, b):
                raise NotABisection(f"{sorted(b)} is not a bisection")
            gens.append(b)
    closed = set(gens)
    closed.add(frozenset())
    changed = True
    while changed:
        changed = False
        current = list(closed)
        for s in current:
            t = bisection_inverse(G, s)
            if t not in closed:
                closed.add(t)
                changed = True
        current = list(closed)
        for s in current:
            for t in current:
                for r in (bisection_product(G, s, t), s & t):
                    if r not in closed:
                        closed.add(r)
                        changed = True
    biss = sorted(closed, key=lambda b: (len(b), sorted(b)))
    pos = {b: i for i, b in enumerate(biss)}
    table = [[pos[bisection_product(G, s, t)] for t in biss] for s in biss]
    labels = ["{" + ",".join(G.labels[a] for a in sorted(b)) + "}" for b in biss]
    S = verify_inverse_semigroup(table, labels=labels)
    covered = set().union(*biss) if biss else set()
    wide = covered == set(G.arrows())
    return S, biss, wide


# ---------------------------------------------------------------------------
# 2-cocycles

class TwoCocycle:
    """A normalized circle 2-cocycle: Angle values on composable pairs."""

    def __init__(self, G: FiniteGroupoid, tau):
        self.G = G
        self.tau = {pair: as_angle(v) for pair, v in tau.items()}

    def __call__(self, a: int, b: int) -> Angle:
        try:
            return self.tau[(a, b)]
        except KeyError:
            raise GroupoidError(f"cocycle missing on pair ({a}, {b})") from None

    @classmethod
    def trivial(cls, G: FiniteGroupoid) -> "TwoCocycle":
        return cls(G, {pair: Angle(0) for pair in G.composable_pairs()})

    @classmethod
    def coboundary(cls, G: FiniteGroupoid, c) -> "TwoCocycle":
        """tau(a,b) = c(a) c(b) conj(c(ab)) for unit-modulus c with c(unit)=1."""
        cc = {a: as_angle(c.get(a, 0)) for a in G.arrows()}
        tau = {(a, b): cc[a] * cc[b] * cc[G.mul(a, b)].conj()
               for a, b in G.composable_pairs()}
        return cls(G, tau)


def verify_cocycle(G: FiniteGroupoid, tau: TwoCocycle):
    """Exact check of normalization and the cocycle identity.

    Returns (ok, violations); each violation is a tagged tuple.
    """
    violations = []
    pairs = set(G.composable_pairs())
    for pair in pairs:
        if pair not in tau.tau:
            violations.append(("missing", pair))
    for pair in tau.tau:
        if pair not in pairs:
            violations.append(("extraneous", pair))
    if violations:
        return False, violations
    for a in G.arrows():
        if not tau(a, G.unit[G.src[a]]).is_one:
            violations.append(("normalization", (a, G.unit[G.src[a]])))
        if not tau(G.unit[G.rng[a]], a).is_one:
            violations.append(("normalization", (G.unit[G.rng[a]], a)))
    for a, b, c in G.composable_triples():
        if tau(a, b) * tau(G.mul(a, b), c) != tau(b, c) * tau(a, G.mul(b, c)):
            violations.append(("cocycle", (a, b, c)))
    return not violations, violations


def enumerate_cocycles(G: FiniteGroupoid, roots: int = 4, max_slots: int = 12):
    """All normalized cocycles with values in the given roots of unity.

    Brute force over the composable pairs not forced by normalization,
    filtered by verify_cocycle.  Guarded by max_slots.
    """
    pairs = G.composable_pairs()
    forced = {}
    free = []
    for a, b in pairs:
        if G.is_unit(a) or G.is_unit(b):
            forced[(a, b)] = Angle(0)
        else:
            free.append((a, b))
    if len(free) > max_slots:
        raise TooManyArrows(f"{len(free)} free cocycle slots exceed cap {max_slots}")
    values = [Angle(f"{k}/{roots}") if k else Angle(0) for k in range(roots)]
    out = []
    for combo in iproduct(values, repeat=len(free)):
        tau = TwoCocycle(G, {**forced, **dict(zip(free, combo))})
        ok, _ = verify_cocycle(G, tau)
        if ok:
            out.append(tau)
    return out


def coboundary_cocycles(G: FiniteGroupoid, roots: int = 4):
    """All coboundary cocycles from unit-modulus c with root-of-unity values."""
    non_units = [a for a in G.arrows() if not G.is_unit(a)]
    values = [Angle(f"{k}/{roots}") if k else Angle(0) for k in range(roots)]
    seen = set()
    out = []
    for combo in iproduct(values, repeat=len(non_units)):
        tau = TwoCocycle.coboundary(G, dict(zip(non_units, combo)))
        key = tuple(sorted((pair, v.frac) for pair, v in tau.tau.items()))
        if key not in seen:
            seen.add(key)
            out.append(tau)
    return out


def z2_nontrivial_cocycle() -> tuple[FiniteGroupoid, TwoCocycle]:
    """The order-two group with tau(g, g) = -1."""
    G = cyclic_group(2)
    tau = {pair: Angle(0) for pair in G.composable_pairs()}
    tau[(1, 1)] = Angle("1/2")
    return G, TwoCocycle(G, tau)


# ---------------------------------------------------------------------------
# translation to twisted actions

def action_from_cocycle(G: FiniteGroupoid, tau: TwoCocycle, S, bisections, wide=True):
    """The twisted action on the object space induced by a cocycle.

    Points are the objects of G; the bisection s acts by src -> rng along
    its arrows; omega(s, t) at the range of a product arrow ab (a in s,
    b in t) is tau(a, b), built as exponents of tau's values.  The ranges of
    the products ab are U(st) when S and the bisections come from
    bisection_semigroup.  Requires a wide bisection family.
    """
    import numpy as np

    from fellsem.action import CHUNK, OUTSIDE, Frame, TwistedAction, exponents
    from fellsem.partial_maps import PartialBijection

    if not wide:
        raise NotWide("bisection family does not cover the groupoid")
    U = {s: frozenset(G.rng[a] for a in bisections[s]) for s in S.elements()}
    theta = {s: PartialBijection({G.src[a]: G.rng[a] for a in bisections[s]}) for s in S.elements()}
    F = Frame(S, list(G.objects), U, theta)
    pairs = G.composable_pairs()
    N, K = exponents([tau(a, b).frac for a, b in pairs])
    # every (s, t) holding a composable pair p = (a, b), a in s and b in t,
    # chunked over the pairs
    member = np.array([[a in bisections[s] for a in G.arrows()] for s in S.elements()],
                      dtype=bool).reshape(S.n, G.m)
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    step = max(1, CHUNK // S.n ** 2)
    s, t, p = np.concatenate([np.zeros((3, 0), dtype=np.intp)] + [
        np.stack(np.nonzero(member[:, None, a[c:c + step]] & member[None, :, b[c:c + step]])) + [[0], [0], [c]]
        for c in range(0, len(pairs), step)], axis=1)
    W = np.full((S.n, S.n, F.m), OUTSIDE, dtype=K.dtype)
    W[s, t, np.array([F.index[y] for y in G.rng], dtype=np.intp).reshape(-1)[a[p]]] = K[p]
    return TwistedAction.from_exponents(F, N, W)


def germ_recovers_groupoid(G: FiniteGroupoid, tau: TwoCocycle, S, bisections, wide=True):
    """Compare the germ groupoid of the induced action with G itself.

    The canonical map sends the germ of (s, x) to the unique arrow of the
    bisection s with source x.  Returns (ok, mapping or counterexample).
    """
    from fellsem.action import germ_groupoid, germ_map_check

    A = action_from_cocycle(G, tau, S, bisections, wide)
    return germ_map_check(germ_groupoid(A),
                          lambda t, x: [a for a in bisections[t] if G.src[a] == x][0],
                          G.m, lambda a: G.src[a], lambda a: G.rng[a], G.mul)
