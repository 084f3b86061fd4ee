"""Semi-abelian Fell bundles over finite inverse semigroups.

Every bundle modelled here is monomial: in the point-mass bases of the
fibers, the product of two basis elements, the adjoint of one and its
inclusion into a larger fiber are each a single scaled basis element.  One
type, Bundle, holds those three structure tables, with the product rows
keyed by the pair of points they multiply.  It multiplies, stars and
includes scaled point masses by lookup, and extends products and stars
(conjugate-)linearly to CFunctions.  Three builders fill the tables:

- build_bundle(A): the bundle of a twisted action, whose fiber over s is
  the functions on U(ss*) and whose product is twisted by omega;
- SectionBundle(G, tau, S, bisections, carriers): the sections of a
  twisted groupoid over its bisections, with optionally shrunken carriers;
- refine.RefinedBundle(base): the saturated refinement of a bundle.

An algebra is the same table with one fiber: a Bundle over the one-element
inverse semigroup whose fiber is the basis range(n) (see fellsem.algebra).
Every point-mass check reads the tables: Bundle.verify (the exact bundle
axioms, inclusions included), refine.verify_morphism and
reps.verify_representation.  verify_fell_bundle adds the families that
need random dense elements.
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
            acc = acc * f
        else:
            acc = as_complex(acc) * as_complex(f)
    return acc


class Bundle:
    """A monomial Fell bundle over S, given by its structure tables.

    carriers[s]        the point set of the fiber over s;
    products[(s, t)]   (x, y) -> (z, c): delta_x in fiber s times delta_y
                       in fiber t is c delta_z in fiber st.  Every z occurs
                       for at most one pair, so products never add terms;
    stars[s]           x -> (z, c): the adjoint of delta_x in fiber s is
                       c delta_z in fiber s*;
    inclusions[(s, t)] for s <= t, x -> c: delta_x in fiber s is c delta_x
                       in fiber t.

    Scalars are Angles, or complex numbers where a numeric value entered;
    products of Angles stay exact.  A scaled point mass is a pair (z, c)
    with c non-zero, or None for zero; mul_point, star_point and
    include_point act on those by lookup, and mul and star extend the
    tables (conjugate-)linearly to CFunctions.  `realization` names the
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

    def mul_point(self, s: int, t: int, p, q):
        hit = p and q and self.products[(s, t)].get((p[0], q[0]))
        return hit and _scaled(hit[0], p[1], q[1], hit[1])

    def star_point(self, s: int, p):
        hit = p and self.stars[s].get(p[0])
        return hit and _scaled(hit[0], scalar_conj(p[1]), hit[1])

    def include_point(self, t: int, s: int, p):
        """j(t, s) of a scaled point mass in fiber s, for s <= t."""
        scalars = self.inclusions[(s, t)]
        return _scaled(p[0], p[1], scalars[p[0]]) if p and p[0] in scalars else None

    def mul(self, s: int, t: int, f: CFunction, g: CFunction) -> CFunction:
        vals = {}
        for (x, y), (z, c) in self.products[(s, t)].items():
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

    def verify(self, tol: float = 1e-9):
        """The exact axioms on point masses, by table lookups.

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
        S, lab = self.S, self.S.label
        els, inv, cars = S.elements(), S.inv, self.carriers
        bad = []
        for s in els:
            for t in els:
                cs, ct, cst = cars[s], cars[t], cars[S.mul(s, t)]
                if any(x not in cs or y not in ct or z not in cst
                       for (x, y), (z, _) in self.products[(s, t)].items()):
                    bad.append(("product-fiber", (lab(s), lab(t))))
            if any(x not in cars[s] or z not in cars[inv[s]]
                   for x, (z, _) in self.stars[s].items()):
                bad.append(("star-fiber", lab(s)))
        for (s, t), entries in self.inclusions.items():
            if not entries.keys() <= cars[s] & cars[t]:
                bad.append(("inclusion-fiber", (lab(s), lab(t))))
        if bad:
            return False, bad

        mul, star, include = self.mul_point, self.star_point, self.include_point

        def check(tag, where, lhs, rhs):
            if _far(lhs, rhs, tol):
                bad.append((tag, where))

        for r in els:
            for s in els:
                rs = S.mul(r, s)
                for t in els:
                    st = S.mul(s, t)
                    lhs = {(x, y, z): mul(rs, t, p, (z, ONE))
                           for (x, y), p in self.products[(r, s)].items() for z in cars[t]}
                    rhs = {(x, y, z): mul(r, st, (x, ONE), p)
                           for (y, z), p in self.products[(s, t)].items() for x in cars[r]}
                    for key in lhs.keys() | rhs.keys():
                        check("associativity", (lab(r), lab(s), lab(t), *key),
                              lhs.get(key), rhs.get(key))
        for s in els:
            for x in cars[s]:
                check("involutive", (lab(s), x), star(inv[s], star(s, (x, ONE))), (x, ONE))
        for s in els:
            for t in els:
                st = S.mul(s, t)
                for x in cars[s]:
                    for y in cars[t]:
                        check("anti-multiplicative", (lab(s), lab(t), x, y),
                              star(st, mul(s, t, (x, ONE), (y, ONE))),
                              mul(inv[t], inv[s], star(t, (y, ONE)), star(s, (x, ONE))))

        for s in els:
            for t in els:
                if not S.leq(s, t):
                    continue
                middle = [r for r in els if S.leq(s, r) and S.leq(r, t)]
                for x in cars[s]:
                    p = (x, ONE)
                    jp = include(t, s, p)
                    if abs((abs(as_complex(jp[1])) if jp else 0.0) - 1) > tol:
                        bad.append(("inclusion-isometric", (lab(s), lab(t), x)))
                    if s == t:
                        check("inclusion-identity", (lab(s), x), jp, p)
                    for r in middle:
                        check("inclusion-functorial", (lab(s), lab(r), lab(t), x),
                              include(t, r, include(r, s, p)), jp)
                    check("inclusion-star", (lab(s), lab(t), x),
                          star(t, jp), include(inv[t], inv[s], star(s, p)))
                    for u in els:
                        tu, su, ut, us = S.mul(t, u), S.mul(s, u), S.mul(u, t), S.mul(u, s)
                        for y in cars[u]:
                            q = (y, ONE)
                            where = (lab(s), lab(t), lab(u), x, y)
                            check("inclusion-product-left", where, mul(t, u, jp, q),
                                  include(tu, su, mul(s, u, p, q)))
                            check("inclusion-product-right", where, mul(u, t, q, jp),
                                  include(ut, us, mul(u, s, q, p)))
        return not bad, bad


def _scaled(z, *factors):
    """The point mass at z scaled by the product of factors; None if zero."""
    c = _smul(*factors)
    return (z, c) if c != 0 else None


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

def random_element(B, s: int, rng) -> CFunction:
    c = B.carrier(s)
    return CFunction(c, {x: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for x in c})


def verify_fell_bundle(B, tol: float = 1e-9, samples: int = 3, rng=None):
    """Check the bundle axioms: the exact point-mass families are
    B.verify's, and the rest run on random dense elements.

    All operations are bilinear or conjugate-linear, so point-mass
    equality extends to the whole fiber; the random families exercise
    linearity itself: left- and right-linearity, submultiplicativity,
    star-isometric, conjugate-linear, the C*-identity and positivity.
    Returns (ok, violations).
    """
    import random as _random
    rng = rng or _random.Random(0)
    S = B.S

    def close(f: CFunction, g: CFunction) -> bool:
        if f.carrier != g.carrier:
            return False
        return all(abs(f.at(x) - g.at(x)) <= tol for x in f.carrier)

    # the exact families on point masses, by table lookups; the rest
    # multiply through the rows, so stop here if a table leaves its fibers
    _, bad = B.verify(tol)
    if any(tag in ("product-fiber", "star-fiber", "inclusion-fiber") for tag, _ in bad):
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
