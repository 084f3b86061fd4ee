"""Semi-abelian Fell bundles over finite inverse semigroups.

Every bundle modelled here is monomial: in the point-mass bases of the
fibers, the product of two basis elements, the adjoint of one and its
inclusion into a larger fiber are each a single scaled basis element.  One
type, Bundle, holds those three structure tables and extends them
(conjugate-)linearly to CFunctions.  Three builders fill the tables:

- build_bundle(A): the bundle of a twisted action, whose fiber over s is
  the functions on U(ss*) and whose product is twisted by omega;
- SectionBundle(G, tau, S, bisections, carriers): the sections of a
  twisted groupoid over its bisections, with optionally shrunken carriers;
- refine.RefinedBundle(base): the saturated refinement of a bundle.

An algebra is the same table with one fiber: a Bundle over the one-element
inverse semigroup whose fiber is the basis range(n) (see fellsem.algebra).
Bundle.verify checks the exact point-mass axioms by table lookups.
"""

from __future__ import annotations

from fellsem.angles import ONE, Angle, as_complex, scalar_conj
from fellsem.isg import InverseSemigroup
from fellsem.partial_maps import CFunction
from fellsem.action import TwistedAction


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
            if f.frac:  # a factor one, or an accumulator one, costs no Fraction work
                acc = acc * f if acc.frac else f
        else:
            acc = as_complex(acc) * as_complex(f)
    return acc


class Bundle:
    """A monomial Fell bundle over S, given by its structure tables.

    carriers[s]        the point set of the fiber over s;
    products[(s, t)]   rows (x, y, z, c): delta_x in fiber s times delta_y
                       in fiber t is c delta_z in fiber st.  Every z occurs
                       in at most one row, so products never add terms;
    stars[s]           x -> (z, c): the adjoint of delta_x in fiber s is
                       c delta_z in fiber s*;
    inclusions[(s, t)] for s <= t, x -> c: delta_x in fiber s is c delta_x
                       in fiber t.

    Scalars are Angles, or complex numbers where a numeric value entered;
    products of Angles stay exact.  `realization` names the builder and the
    keyword arguments keep the data the tables were built from as
    attributes (A; G and tau; base and phi).
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
        for x, y, z, c in self.products[(s, t)]:
            v = _smul(f(x), g(y), c)
            if v != 0:
                vals[z] = v
        return CFunction(self.carriers[self.S.mul(s, t)], vals)

    def star(self, s: int, f: CFunction) -> CFunction:
        vals = {}
        for x, (z, c) in self.stars[s].items():
            v = _smul(scalar_conj(f(x)), c)
            if v != 0:
                vals[z] = v
        return CFunction(self.carriers[self.S.inv[s]], vals)

    def include(self, t: int, s: int, f: CFunction) -> CFunction:
        scalars = self.inclusions.get((s, t))
        if scalars is None:
            raise BundleError(f"{self.S.label(s)} is not below {self.S.label(t)}")
        vals = {}
        for x, c in scalars.items():
            v = _smul(f(x), c)
            if v != 0:
                vals[x] = v
        return CFunction(self.carriers[t], vals)

    def verify(self, tol: float = 1e-9):
        """The exact axioms on point masses, by table lookups.

        First every product row must join points of the fibers s and t to a
        point of the fiber st, with at most one row per pair of points; the
        later families read through the rows, so they are skipped if not.
        Then associativity, involutivity and anti-multiplicativity of the
        star.  Returns (ok, violations); each is a (tag, where) pair whose
        where names the semigroup labels and the points.
        """
        S, lab = self.S, self.S.label
        bad, rows = [], {}
        for s in S.elements():
            for t in S.elements():
                cs, ct, cst = self.carriers[s], self.carriers[t], self.carriers[S.mul(s, t)]
                row = rows[(s, t)] = {}
                for x, y, z, c in self.products[(s, t)]:
                    if (x, y) in row:
                        bad.append(("product-duplicate", (lab(s), lab(t), x, y)))
                    row[(x, y)] = (z, c)
                if any(x not in cs or y not in ct or z not in cst
                       for x, y, z, _ in self.products[(s, t)]):
                    bad.append(("product-fiber", (lab(s), lab(t))))
        if bad:
            return False, bad

        # a scaled point mass is (z, c), and zero is None
        def mul(s, t, p, q):
            hit = p and q and rows[(s, t)].get((p[0], q[0]))
            return hit and (hit[0], _smul(p[1], q[1], hit[1]))

        def star(s, p):
            hit = p and self.stars[s].get(p[0])
            return hit and (hit[0], _smul(scalar_conj(p[1]), hit[1]))

        for r in S.elements():
            cr = self.carriers[r]
            for s in S.elements():
                rs = S.mul(r, s)
                for t in S.elements():
                    st, ct = S.mul(s, t), self.carriers[t]
                    lhs = {(x, y, z): mul(rs, t, p, (z, ONE))
                           for (x, y), p in rows[(r, s)].items() for z in ct}
                    rhs = {(x, y, z): mul(r, st, (x, ONE), p)
                           for (y, z), p in rows[(s, t)].items() for x in cr}
                    for key in lhs.keys() | rhs.keys():
                        if _far(lhs.get(key), rhs.get(key), tol):
                            bad.append(("associativity", (lab(r), lab(s), lab(t), *key)))
        for s in S.elements():
            for x in self.carriers[s]:
                if _far(star(S.inv[s], star(s, (x, ONE))), (x, ONE), tol):
                    bad.append(("involutive", (lab(s), x)))
        for s in S.elements():
            for t in S.elements():
                st = S.mul(s, t)
                for x in self.carriers[s]:
                    for y in self.carriers[t]:
                        lhs = star(st, mul(s, t, (x, ONE), (y, ONE)))
                        rhs = mul(S.inv[t], S.inv[s], star(t, (y, ONE)), star(s, (x, ONE)))
                        if _far(lhs, rhs, tol):
                            bad.append(("anti-multiplicative", (lab(s), lab(t), x, y)))
        return not bad, bad


def _far(p, q, tol: float) -> bool:
    """Whether two scaled point masses, (z, c) or None for zero, differ by
    more than tol at some point."""
    if p and q and p[0] == q[0]:
        return p[1] != q[1] and abs(as_complex(p[1]) - as_complex(q[1])) > tol
    return any(m is not None and abs(as_complex(m[1])) > tol for m in (p, q))


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
            products[(s, t)] = [(y, inv_s(y), y, w(y)) for y in carriers[S.mul(s, t)]]
            if S.leq(s, t):
                w = A.omega[(t, S.mul(ss, s))]
                inclusions[(s, t)] = {y: scalar_conj(w(y)) for y in carriers[s]}
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
            products[(s, t)] = [(a, b, G.mul(a, b), tau(a, b))
                                for a in fibers[s] for b in fibers[t]
                                if G.composable(a, b) and G.mul(a, b) in target]
            if S.leq(s, t):
                inclusions[(s, t)] = {a: ONE for a in fibers[s]}
        stars[s] = {G.inv[c]: (c, scalar_conj(tau(G.inv[c], c)))
                    for c in fibers[S.inv[s]] if G.inv[c] in fibers[s]}
    return Bundle(S, fibers, products, stars, inclusions, "section", G=G, tau=tau)


# ---------------------------------------------------------------------------

def random_element(B, s: int, rng) -> CFunction:
    c = B.carrier(s)
    return CFunction(c, {x: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in c})


def verify_fell_bundle(B, tol: float = 1e-9, samples: int = 3, rng=None):
    """Check the bundle axioms on point masses plus random dense elements;
    the exact point-mass families are B.verify's.

    All operations are bilinear or conjugate-linear, so point-mass
    equality extends to the whole fiber; random elements additionally
    exercise linearity itself.  Returns (ok, violations).
    """
    import random as _random
    rng = rng or _random.Random(0)
    S = B.S

    def pms(s):
        return [CFunction.point_mass(B.carrier(s), x) for x in B.carrier(s)]

    def close(f: CFunction, g: CFunction) -> bool:
        if f.carrier != g.carrier:
            return False
        return all(abs(f.at(x) - g.at(x)) <= tol for x in f.carrier)

    # the exact families on point masses, by row and star lookups; the rest
    # multiply through the rows, so stop here if a row leaves its fibers
    _, bad = B.verify(tol)
    if any(tag in ("product-fiber", "product-duplicate") for tag, _ in bad):
        return False, bad

    # bilinearity on random elements
    for s in S.elements():
        for t in S.elements():
            for _ in range(samples):
                f1, f2 = random_element(B, s, rng), random_element(B, s, rng)
                g = random_element(B, t, rng)
                lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
                lhs = B.mul(s, t, f1.scale(lam).add(f2), g)
                rhs = B.mul(s, t, f1, g).scale(lam).add(B.mul(s, t, f2, g))
                if not close(lhs, rhs):
                    bad.append(("left-linearity", (S.label(s), S.label(t))))
                h1, h2 = random_element(B, t, rng), random_element(B, t, rng)
                e = random_element(B, s, rng)
                lhs = B.mul(s, t, e, h1.scale(lam).add(h2))
                rhs = B.mul(s, t, e, h1).scale(lam).add(B.mul(s, t, e, h2))
                if not close(lhs, rhs):
                    bad.append(("right-linearity", (S.label(s), S.label(t))))

    # norm submultiplicativity on random elements
    for s in S.elements():
        for t in S.elements():
            for _ in range(samples):
                f, g = random_element(B, s, rng), random_element(B, t, rng)
                if B.mul(s, t, f, g).sup_norm() > f.sup_norm() * g.sup_norm() + tol:
                    bad.append(("submultiplicative", (S.label(s), S.label(t))))

    # involution: isometric and conjugate-linear
    for s in S.elements():
        for _ in range(samples):
            f = random_element(B, s, rng)
            if abs(B.star(s, f).sup_norm() - f.sup_norm()) > tol:
                bad.append(("star-isometric", S.label(s)))
            g = random_element(B, s, rng)
            lam = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            lhs = B.star(s, f.scale(lam).add(g))
            rhs = B.star(s, f).scale(lam.conjugate()).add(B.star(s, g))
            if not close(lhs, rhs):
                bad.append(("conjugate-linear", S.label(s)))

    # C*-identity and positivity of f* f
    for s in S.elements():
        ss = S.inv[s]
        for _ in range(samples):
            f = random_element(B, s, rng)
            p = B.mul(ss, s, B.star(s, f), f)
            if abs(p.sup_norm() - f.sup_norm() ** 2) > tol * max(1.0, f.sup_norm() ** 2):
                bad.append(("cstar-identity", S.label(s)))
            for x in p.carrier:
                v = p.at(x)
                if abs(v.imag) > tol or v.real < -tol:
                    bad.append(("positivity", (S.label(s), x)))

    # inclusions: identity at s=s, isometric, injective, functorial
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            for f in pms(s):
                jf = B.include(t, s, f)
                if abs(jf.sup_norm() - f.sup_norm()) > tol:
                    bad.append(("inclusion-isometric", (S.label(s), S.label(t))))
            if s == t:
                g = random_element(B, s, rng)
                if not close(B.include(s, s, g), g):
                    bad.append(("inclusion-identity", S.label(s)))
            for r in S.elements():
                if not S.leq(r, s):
                    continue
                for f in pms(r):
                    lhs = B.include(t, s, B.include(s, r, f))
                    rhs = B.include(t, r, f)
                    if not close(lhs, rhs):
                        bad.append(("inclusion-functorial",
                                    (S.label(r), S.label(s), S.label(t))))

    # inclusions against involution and product (both reduced forms)
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            for f in pms(s):
                lhs = B.star(t, B.include(t, s, f))
                rhs = B.include(S.inv[t], S.inv[s], B.star(s, f))
                if not close(lhs, rhs):
                    bad.append(("inclusion-star", (S.label(s), S.label(t))))
            for u in S.elements():
                su, tu = S.mul(s, u), S.mul(t, u)
                us, ut = S.mul(u, s), S.mul(u, t)
                for f in pms(s):
                    for g in pms(u):
                        lhs = B.mul(t, u, B.include(t, s, f), g)
                        rhs = B.include(tu, su, B.mul(s, u, f, g))
                        if not close(lhs, rhs):
                            bad.append(("inclusion-product-left",
                                        (S.label(s), S.label(t), S.label(u))))
                        lhs = B.mul(u, t, g, B.include(t, s, f))
                        rhs = B.include(ut, us, B.mul(u, s, g, f))
                        if not close(lhs, rhs):
                            bad.append(("inclusion-product-right",
                                        (S.label(s), S.label(t), S.label(u))))

    return not bad, bad


def classify_bundle(B, tol: float = 1e-9):
    """Report saturation, semi-abelianness, and fiberwise regularity.

    Regularity of a commutative-model fiber means the constant-one
    function is a two-sided generating multiplier; the witness family is
    returned when every fiber is regular.
    """
    S = B.S

    def targets(s, t):
        return {z for _, _, z, _ in B.products[(s, t)]}

    unsat = [(S.label(s), S.label(t)) for s in S.elements() for t in S.elements()
             if targets(s, t) != B.carrier(S.mul(s, t))]

    semi_abelian = True
    for e in S.idem:
        table = {(x, y): (z, c) for x, y, z, c in B.products[(e, e)]}
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
            a = B.mul(s, S.mul(ss, s), u[s], CFunction.point_mass(dom, x))
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
