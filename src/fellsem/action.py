"""Twisted actions of finite inverse semigroups on functions over a finite set.

An action consists of carrier subsets U(s) of the point set X (the ideals),
partial bijections theta_s moving points (the isomorphisms between ideals,
acting on functions by pullback along the inverse), and unit-modulus
cocycle functions omega(s, t) carried by U(st).

The germ groupoid is the quotient of the pairs (t, x), x in U(t*t), by the
inclusion order: [s, x] = [t, x] for s <= t.  Its coordinates come from the
inclusion scalars of the action's bundle, conj(omega(t, s*s)), which turn
s-coordinates into t-coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from fellsem.angles import ONE, Angle, as_angle, scalar_conj
from fellsem.isg import InverseSemigroup
from fellsem.partial_maps import CFunction, PartialBijection


class ActionError(ValueError):
    pass


class GaugeNotUnitAtIdempotent(ActionError):
    pass


class TwistedAction:
    """(S, X, U, theta, omega) with omega values stored as exact Angles."""

    def __init__(self, S: InverseSemigroup, X, U, theta, omega):
        self.S = S
        self.X = list(X)
        self.U = {s: frozenset(U[s]) for s in S.elements()}
        self.theta = dict(theta)
        self.omega = dict(omega)

    def omega_at(self, s: int, t: int, y) -> Angle:
        v = self.omega[(s, t)](y)
        if v == 0:
            raise ActionError(
                f"omega({self.S.label(s)},{self.S.label(t)}) undefined at {y}")
        return v

    def carrier(self, s: int) -> frozenset:
        """Carrier of the fiber over s: U(ss*)."""
        return self.U[self.S.mul(s, self.S.inv[s])]

    def inclusion_scalars(self, s: int, t: int) -> dict:
        """The inclusion j(t, s), s <= t, on point masses of the fiber over
        s: delta_y goes to conj(omega(t, s*s)(y)) delta_y."""
        w = self.omega[(t, self.S.mul(self.S.inv[s], s))]
        return {y: scalar_conj(w(y)) for y in self.carrier(s)}

    def structural_violations(self):
        S = self.S
        out = []
        covered = set()
        for e in S.idem:
            covered |= self.U[e]
        if covered != set(self.X):
            out.append(("carrier-cover", sorted(set(self.X) - covered)))
        for s in S.elements():
            ss = S.mul(s, S.inv[s])
            if self.U[s] != self.U[ss]:
                out.append(("carrier-mismatch", S.label(s)))
            th = self.theta[s]
            if th.domain != self.U[S.mul(S.inv[s], s)] or th.range != self.U[ss]:
                out.append(("theta-endpoints", S.label(s)))
        for e in S.idem:
            if self.theta[e] != PartialBijection.identity(self.U[e]):
                out.append(("theta-not-identity", S.label(e)))
        for s in S.elements():
            for t in S.elements():
                w = self.omega[(s, t)]
                st = S.mul(s, t)
                if w.carrier != self.carrier(st):
                    out.append(("omega-carrier", (S.label(s), S.label(t))))
                for x in w.carrier:
                    if not isinstance(w(x), Angle):
                        out.append(("omega-not-unit", (S.label(s), S.label(t), x)))
        return out

    def equals(self, other: "TwistedAction") -> bool:
        """Exact field-by-field comparison over a shared semigroup."""
        if self.S.n != other.S.n or list(self.X) != list(other.X):
            return False
        for s in self.S.elements():
            if self.U[s] != other.U[s] or self.theta[s] != other.theta[s]:
                return False
        for key, w in self.omega.items():
            if not w.equals(other.omega[key]):
                return False
        return True

    def to_json(self):
        S = self.S
        return {
            "semigroup": S.to_json(),
            "points": [str(x) for x in self.X],
            "U": {S.label(s): sorted(str(x) for x in self.U[s]) for s in S.elements()},
            "theta": {S.label(s): {str(x): str(y) for x, y in sorted(self.theta[s].map.items())}
                      for s in S.elements()},
            "omega": {f"{S.label(s)},{S.label(t)}":
                      {str(x): str(as_angle(w(x)).frac) for x in sorted(w.carrier, key=str)}
                      for (s, t), w in self.omega.items()},
        }

    @classmethod
    def from_json(cls, data) -> "TwistedAction":
        from fellsem.isg import verify_inverse_semigroup
        sg = data["semigroup"]
        S = verify_inverse_semigroup(sg["table"], labels=sg.get("elements"))
        X = data["points"]
        U = {S.index_of(lab): frozenset(pts) for lab, pts in data["U"].items()}
        theta = {S.index_of(lab): PartialBijection(m)
                 for lab, m in data["theta"].items()}
        index = {lab: i for i, lab in enumerate(S.labels)}
        omega = {}
        for key, vals in data["omega"].items():
            s, t = split_labels(key, index, 2)
            st = S.mul(s, t)
            carrier = U[S.mul(st, S.inv[st])]
            omega[(s, t)] = CFunction(carrier, {x: Angle(Fraction(v)) for x, v in vals.items()})
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


def untwisted_omega(S: InverseSemigroup, U) -> dict:
    """The constant-one cocycle on the carriers U."""
    omega = {}
    for s in S.elements():
        for t in S.elements():
            st = S.mul(s, t)
            omega[(s, t)] = CFunction.one(U[S.mul(st, S.inv[st])])
    return omega


# ---------------------------------------------------------------------------
# axiom verification

def verify_twisted_action(A: TwistedAction):
    """Check the four defining axioms pointwise and exactly.

    Returns (ok, violations).  Axiom tags: "structure", "composition",
    "cocycle", "unit", "idempotent-splitting".
    """
    S = A.S
    violations = [("structure", v) for v in A.structural_violations()]
    if violations:
        return False, violations

    # (i) theta_r . theta_s = theta_rs, with equal (maximal) domains
    for r in S.elements():
        for s in S.elements():
            if A.theta[r].compose(A.theta[s]) != A.theta[S.mul(r, s)]:
                violations.append(("composition", (S.label(r), S.label(s))))

    # (ii) omega(s,t)(x) omega(r,st)(y) = omega(r,s)(y) omega(rs,t)(y)
    # where x runs over U(r*r) & U(st) and y = theta_r(x): the first factor
    # is evaluated before the r-action moves the point, the rest after.
    for r in S.elements():
        dom_r = A.U[S.mul(S.inv[r], r)]
        for s in S.elements():
            for t in S.elements():
                st = S.mul(s, t)
                for x in dom_r & A.carrier(st):
                    y = A.theta[r](x)
                    lhs = A.omega_at(s, t, x) * A.omega_at(r, st, y)
                    rhs = A.omega_at(r, s, y) * A.omega_at(S.mul(r, s), t, y)
                    if lhs != rhs:
                        violations.append(
                            ("cocycle", (S.label(r), S.label(s), S.label(t), x)))

    # (iii) omega(e,f) = 1 and omega(r, r*r) = omega(rr*, r) = 1
    for e in S.idem:
        for f in S.idem:
            w = A.omega[(e, f)]
            for x in w.carrier:
                if not as_angle(w(x)).is_one:
                    violations.append(("unit", (S.label(e), S.label(f), x)))
    for r in S.elements():
        for s, t in ((r, S.mul(S.inv[r], r)), (S.mul(r, S.inv[r]), r)):
            w = A.omega[(s, t)]
            for x in w.carrier:
                if not as_angle(w(x)).is_one:
                    violations.append(("unit", (S.label(s), S.label(t), x)))

    # (iv) omega(s*,e)(x) omega(s*e s... ) splitting identity
    for s in S.elements():
        ss = S.inv[s]
        for e in S.idem:
            se = S.mul(ss, e)
            ses = S.mul(se, s)
            for x in A.carrier(ses):
                lhs = A.omega_at(ss, e, x) * A.omega_at(se, s, x)
                if lhs != A.omega_at(ss, s, x):
                    violations.append(
                        ("idempotent-splitting", (S.label(s), S.label(e), x)))

    return not violations, violations


def verify_consequences(A: TwistedAction):
    """Derived identities that every valid action must satisfy.

    A violation here, on data passing verify_twisted_action, indicates an
    implementation bug rather than bad input.  Returns (ok, violations).
    """
    S = A.S
    out = []

    # theta_{s*} is the inverse partial bijection
    for s in S.elements():
        if A.theta[S.inv[s]] != A.theta[s].invert():
            out.append(("inverse-map", S.label(s)))

    # image identity: theta_r(U(r*r) & U(s)) = U(rs)
    for r in S.elements():
        dom = A.U[S.mul(S.inv[r], r)]
        for s in S.elements():
            image = frozenset(A.theta[r](x) for x in dom & A.U[s])
            if image != A.carrier(S.mul(r, s)):
                out.append(("image", (S.label(r), S.label(s))))

    # carrier monotonicity and intersection
    for r in S.elements():
        for s in S.elements():
            if S.leq(r, s) and not A.U[r] <= A.U[s]:
                out.append(("monotone", (S.label(r), S.label(s))))
            meet = S.mul(S.mul(r, S.inv[r]), S.mul(s, S.inv[s]))
            if A.U[r] & A.U[s] != A.U[meet]:
                out.append(("intersection", (S.label(r), S.label(s))))

    # restriction: theta_t agrees with theta_s on U(s*s) when s <= t
    for s in S.elements():
        for t in S.elements():
            if S.leq(s, t):
                dom = A.U[S.mul(S.inv[s], s)]
                if A.theta[t].restrict(dom) != A.theta[s]:
                    out.append(("restriction", (S.label(s), S.label(t))))

    # omega(s*,s) pulled through theta_s equals omega(s,s*)
    for s in S.elements():
        ss = S.inv[s]
        for y in A.carrier(S.mul(s, ss)):
            x = A.theta[s].invert()(y)
            if A.omega_at(ss, s, x) != A.omega_at(s, ss, y):
                out.append(("flip", (S.label(s), y)))

    # omega(r,e) = 1 whenever e >= r*r
    for r in S.elements():
        rr = S.mul(S.inv[r], r)
        for e in S.idem:
            if S.leq(rr, e):
                w = A.omega[(r, e)]
                for x in w.carrier:
                    if not as_angle(w(x)).is_one:
                        out.append(("dominating-unit", (S.label(r), S.label(e), x)))

    # omega(t*,s) = omega(t*,ss*) omega(s*,s) pointwise, for s <= t
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            ts = S.inv[t]
            e = S.mul(s, S.inv[s])
            for x in A.carrier(S.mul(ts, s)):
                lhs = A.omega_at(ts, s, x)
                rhs = A.omega_at(ts, e, x) * A.omega_at(S.inv[s], s, x)
                if lhs != rhs:
                    out.append(("star-restriction", (S.label(s), S.label(t), x)))

    # transition chain: omega(t,r*r) = omega(t,s*s) omega(s,r*r) on U(r), r<=s<=t
    for r in S.elements():
        for s in S.elements():
            if not S.leq(r, s):
                continue
            for t in S.elements():
                if not S.leq(s, t):
                    continue
                rr = S.mul(S.inv[r], r)
                ssn = S.mul(S.inv[s], s)
                for y in A.carrier(S.mul(t, rr)):
                    lhs = A.omega_at(t, rr, y)
                    rhs = A.omega_at(t, ssn, y) * A.omega_at(s, rr, y)
                    if lhs != rhs:
                        out.append(("chain", (S.label(r), S.label(s), S.label(t), y)))

    return not out, out


# ---------------------------------------------------------------------------
# Sieben condition and gauges

def check_sieben(A: TwistedAction):
    """True iff omega(s, e) and omega(e, s) are constant one for idempotent e."""
    S = A.S
    bad = []
    for s in S.elements():
        for e in S.idem:
            for u, v in ((s, e), (e, s)):
                w = A.omega[(u, v)]
                for x in w.carrier:
                    if not as_angle(w(x)).is_one:
                        bad.append((S.label(u), S.label(v), x))
    return not bad, bad


def gauge_transform(A: TwistedAction, chi) -> TwistedAction:
    """Rescale the implicit unitary family by chi.

    chi maps elements to unit-modulus Angle-valued functions on the fiber
    carriers U(ss*); missing entries default to the constant one.  chi must
    be constant one on idempotents.
    """
    S = A.S

    def chi_at(s, y):
        f = chi.get(s)
        if f is None:
            return Angle(0)
        v = f(y)
        if v == 0:
            raise ActionError(f"gauge for {S.label(s)} undefined at {y}")
        return as_angle(v)

    for e in S.idem:
        f = chi.get(e)
        if f is not None:
            for x in f.carrier:
                if not as_angle(f(x)).is_one:
                    raise GaugeNotUnitAtIdempotent(S.label(e))

    omega = {}
    for (s, t), w in A.omega.items():
        st = S.mul(s, t)
        inv_s = A.theta[s].invert()
        vals = {}
        for y in w.carrier:
            vals[y] = (chi_at(s, y) * chi_at(t, inv_s(y))
                       * chi_at(st, y).conj() * as_angle(w(y)))
        omega[(s, t)] = CFunction(w.carrier, vals)
    return TwistedAction(S, A.X, A.U, A.theta, omega)


# ---------------------------------------------------------------------------
# germ groupoid

class GermGroupoid:
    """Germs [t, x] of a twisted action: the pairs (t, x) with x in U(t*t)
    modulo the natural order, [s, x] = [t, x] for s <= t.

    In the bundle, j(t, s) turns s-coordinates at x into t-coordinates by
    the inclusion scalar at theta_s(x) (TwistedAction.inclusion_scalars).
    A weighted union-find over these edges yields the classes and, for
    every pair, coord(t, x): the scalar turning t-coordinates at x into
    those of the class's canonical representative (idempotents first, then
    the smallest index).  An edge that closes a cycle with a different
    scalar is recorded as a "transition" violation.

    Arrows are indices into `germs`; each germ records its canonical
    representative (t, x), source x, range theta_t(x), and all
    representatives.  Composition follows the action: [s, y][t, x] =
    [st, x] when y = theta_t(x).
    """

    def __init__(self, A: TwistedAction):
        self.A = A
        S = A.S
        dom = {t: A.U[S.mul(S.inv[t], t)] for t in S.elements()}
        pairs = [(t, x) for t in S.elements() for x in dom[t]]
        # p -> (q, c): c turns p-coordinates into q-coordinates
        parent = {p: (p, ONE) for p in pairs}

        def find(p):
            path = []
            while parent[p][0] != p:
                path.append(p)
                p = parent[p][0]
            c = ONE
            for q in reversed(path):
                c = parent[q][1] * c
                parent[q] = (p, c)
            return p, c

        self.conflicts = []
        for s in S.elements():
            for t in S.elements():
                if s == t or not S.leq(s, t):
                    continue
                scalars = A.inclusion_scalars(s, t)
                for x in dom[s] & dom[t]:
                    c = scalars[A.theta[s](x)]
                    (rp, a), (rq, b) = find((s, x)), find((t, x))
                    if rp != rq:
                        parent[rp] = (rq, scalar_conj(a) * c * b)
                    elif a != c * b:
                        self.conflicts.append(("transition", (s, t, x)))

        classes = {}
        for p in pairs:
            classes.setdefault(find(p)[0], []).append(p)
        self.germs = []
        self.of_pair = {}
        self.coords = {}
        for members in classes.values():
            rep = min(members, key=lambda p: (not S.is_idempotent(p[0]), p[0]))
            back = scalar_conj(find(rep)[1])
            gid = len(self.germs)
            self.germs.append({
                "rep": rep,
                "src": rep[1],
                "rng": A.theta[rep[0]](rep[1]),
                "members": sorted(members),
            })
            for p in members:
                self.of_pair[p] = gid
                self.coords[p] = find(p)[1] * back

    @property
    def arrow_count(self) -> int:
        return len(self.germs)

    def germ(self, t: int, x) -> int:
        return self.of_pair[(t, x)]

    def coord(self, t: int, x):
        """The scalar turning t-coordinates at x into those of the canonical
        representative of the germ [t, x]."""
        return self.coords[(t, x)]

    def src(self, g: int):
        return self.germs[g]["src"]

    def rng(self, g: int):
        return self.germs[g]["rng"]

    def rep(self, g: int):
        return self.germs[g]["rep"]

    def is_unit(self, g: int) -> bool:
        t, x = self.germs[g]["rep"]
        return self.A.S.is_idempotent(t)

    def compose(self, g: int, h: int) -> int:
        sg, y = self.germs[g]["rep"]
        th, x = self.germs[h]["rep"]
        if self.rng(h) != self.src(g):
            raise ActionError("germs not composable")
        return self.of_pair[(self.A.S.mul(sg, th), x)]

    def inverse(self, g: int) -> int:
        t, x = self.germs[g]["rep"]
        return self.of_pair[(self.A.S.inv[t], self.A.theta[t](x))]

    def verify(self):
        """Groupoid laws plus the cycle conflicts of the coordinates."""
        bad = []
        for g in range(self.arrow_count):
            gi = self.inverse(g)
            if self.src(gi) != self.rng(g) or self.rng(gi) != self.src(g):
                bad.append(("inverse-endpoints", g))
            unit = self.compose(g, self.inverse(g))
            if not self.is_unit(unit) or self.src(unit) != self.rng(g):
                bad.append(("inverse-law", g))
        for g in range(self.arrow_count):
            for h in range(self.arrow_count):
                if self.rng(h) != self.src(g):
                    continue
                gh = self.compose(g, h)
                if self.src(gh) != self.src(h) or self.rng(gh) != self.rng(g):
                    bad.append(("composition-endpoints", (g, h)))
        bad += self.conflicts
        return not bad, bad


def germ_groupoid(A: TwistedAction) -> GermGroupoid:
    return GermGroupoid(A)


def germ_map_check(G: GermGroupoid, image, count: int, src, rng, compose):
    """Whether the map sending each representative (t, x) of a germ of G to
    image(t, x), an arrow of a groupoid with `count` arrows, endpoints
    src/rng and product compose, is well defined on germs, bijective, and
    preserves endpoints and composition.  Returns (True, mapping from
    germs to arrows) or (False, counterexample)."""
    mapping = {}
    for g, info in enumerate(G.germs):
        images = {image(t, x) for (t, x) in info["members"]}
        if len(images) != 1:
            return False, ("not-well-defined", g, sorted(images))
        mapping[g] = images.pop()
    if len(set(mapping.values())) != G.arrow_count or G.arrow_count != count:
        return False, ("arrow-count", G.arrow_count, count)
    for g in range(G.arrow_count):
        a = mapping[g]
        if src(a) != G.src(g) or rng(a) != G.rng(g):
            return False, ("endpoints", g)
        for h in range(G.arrow_count):
            if G.rng(h) == G.src(g) and mapping[G.compose(g, h)] != compose(a, mapping[h]):
                return False, ("composition", (g, h))
    return True, mapping


def siebenize(A: TwistedAction):
    """A gauge chi, trivial on idempotents, whose transform satisfies the
    Sieben condition: per germ, adopt the canonical representative's
    coordinate and convert every other representative to it."""
    G = GermGroupoid(A)
    S = A.S
    chi = {}
    for s in S.elements():
        vals = {A.theta[s](x): scalar_conj(G.coord(s, x)) for x in A.U[S.mul(S.inv[s], s)]}
        chi[s] = CFunction(A.carrier(s), vals)
    return chi, gauge_transform(A, chi)
