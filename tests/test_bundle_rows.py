"""The row builders and readers against the dict builders and readers they
replaced.

A Bundle is its rows, emitted directly by build_bundle, SectionBundle and
RefinedBundle.  The former builders, which filled dict tables of Angles,
and the former dict readers classify_bundle, extract_action and
roundtrip_check are kept here as references.  The rows read through
tables(B) must equal the reference tables, and every check must give the
same verdict and violation list on the rows as on the reference tables
turned into rows (Tables.bundle, numbering each fiber's points as B does).
"""

import cmath
import random

import numpy as np
import pytest

from fellsem.action import NOT_ANGLE, TwistedAction, verify_twisted_action
from fellsem.bundle import (BadMultiplierFamily, BundleError, NotSaturated, NotSemiAbelian,
                            SectionBundle, build_bundle, canonical_multipliers, classify_bundle,
                            extract_action, roundtrip_check, verify_fell_bundle)
from fellsem.generators import corpus, mutate_omega, mutation_corpus, standard_groupoids
from fellsem.algebra import convolution_algebra
from fellsem.groupoid import (TwoCocycle, bisection_semigroup, cyclic_group, pair_groupoid,
                              z2_nontrivial_cocycle)
from fellsem.isg import verify_inverse_semigroup
from fellsem.refine import (BundleMorphism, RefinedBundle, refinement_morphism, verify_morphism,
                            verify_refinement)
from fellsem.reps import regular_covariant_rep, to_bundle_rep, verify_representation

from dense import (ONE, Angle, CFunction, Tables, as_complex, carrier, cfunctions, invert,
                   multiplier_functions, omega_dicts, scalar_conj, tables)
from test_acceptance import _non_saturated_examples


# ---------------------------------------------------------------------------
# the former dict builders

def ref_build_bundle(A) -> Tables:
    S, om = A.S, cfunctions(A.omega)
    carriers = {s: carrier(A, s) for s in S.elements()}
    products, stars, inclusions = {}, {}, {}
    for s in S.elements():
        ss = S.inv[s]
        inv_s = invert(A.theta[s])
        for t in S.elements():
            w = om[(s, t)]
            products[(s, t)] = {(y, inv_s[y]): (y, w(y)) for y in carriers[S.mul(s, t)]}
            if S.leq(s, t):  # conj(omega(t, s*s)) on the fiber over s
                w = om[(t, S.mul(ss, s))]
                inclusions[(s, t)] = {y: scalar_conj(w(y)) for y in carriers[s]}
        w = om[(ss, s)]
        stars[s] = {A.theta[s][x]: (x, scalar_conj(w(x))) for x in carriers[ss]}
    return Tables(S, carriers, products, stars, inclusions, "action", A=A)


def ref_section_bundle(G, tau, S, bisections, carriers=None) -> Tables:
    fibers = {}
    for s in S.elements():
        full = frozenset(bisections[s])
        fibers[s] = frozenset(carriers[s]) if carriers and s in carriers else full
    products, stars, inclusions = {}, {}, {}
    for s in S.elements():
        for t in S.elements():
            target = fibers[S.mul(s, t)]
            products[(s, t)] = {(a, b): (G.mul(a, b), Angle(tau(a, b)))
                                for a in fibers[s] for b in fibers[t]
                                if G.composable(a, b) and G.mul(a, b) in target}
            if S.leq(s, t):
                inclusions[(s, t)] = {a: ONE for a in fibers[s]}
        stars[s] = {G.inv[c]: (c, Angle(tau(G.inv[c], c)).conj())
                    for c in fibers[S.inv[s]] if G.inv[c] in fibers[s]}
    return Tables(S, fibers, products, stars, inclusions, "section", G=G, tau=tau)


def _prod_carrier(A, s, t, V, W) -> frozenset:
    return frozenset(z for (x, y), (z, _) in A.products[(s, t)].items() if x in V and y in W)


def _star_carrier(A, s, V) -> frozenset:
    return frozenset(z for x, (z, _) in A.stars[s].items() if x in V)


def ref_refined_bundle(base: Tables) -> Tables:
    baseS = base.S
    pairs = {(s, base.carrier(s)) for s in baseS.elements()}
    frontier = list(pairs)
    while frontier:
        nxt = []
        for (s, V) in frontier:
            p = (baseS.inv[s], _star_carrier(base, s, V))
            if p not in pairs:
                pairs.add(p)
                nxt.append(p)
        for (s, V) in list(pairs):
            for (t, W) in list(pairs):
                p = (baseS.mul(s, t), _prod_carrier(base, s, t, V, W))
                if p not in pairs:
                    pairs.add(p)
                    nxt.append(p)
        frontier = nxt
    pairs = sorted(pairs, key=lambda p: (p[0], sorted(p[1], key=str)))
    pos = {p: i for i, p in enumerate(pairs)}
    table = [[pos[(baseS.mul(s, t), _prod_carrier(base, s, t, V, W))] for (t, W) in pairs]
             for (s, V) in pairs]
    labels = [f"({baseS.label(s)}|{','.join(sorted(map(str, V)))})" for (s, V) in pairs]
    S = verify_inverse_semigroup(table, labels=labels)
    phi = [s for (s, _) in pairs]
    fibers = {i: V for i, (_, V) in enumerate(pairs)}
    products, stars, inclusions = {}, {}, {}
    for i in S.elements():
        for j in S.elements():
            V, W, target = fibers[i], fibers[j], fibers[S.mul(i, j)]
            products[(i, j)] = {(x, y): (z, c)
                                for (x, y), (z, c) in base.products[(phi[i], phi[j])].items()
                                if x in V and y in W and z in target}
            if S.leq(i, j):
                inclusions[(i, j)] = {x: c for x, c in base.inclusions[(phi[i], phi[j])].items()
                                      if x in V}
        target = fibers[S.inv[i]]
        stars[i] = {x: (z, c) for x, (z, c) in base.stars[phi[i]].items()
                    if x in fibers[i] and z in target}
    return Tables(S, fibers, products, stars, inclusions, "refined", base=base, phi=phi)


# ---------------------------------------------------------------------------
# the former dict readers

def ref_classify_bundle(B, tol=1e-9):
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
    regular = {S.label(s): targets(s, S.mul(S.inv[s], s)) == B.carrier(s)
               == targets(S.mul(s, S.inv[s]), s) for s in S.elements()}
    return {"saturated": not unsat, "unsaturated_pairs": unsat,
            "semi_abelian": semi_abelian, "regular": regular}


def ref_check_multiplier_family(B, u) -> None:
    S = B.S
    for s in S.elements():
        f = u[s]
        unit = all(isinstance(v, Angle) or abs(complex(v)) == 1 for v in f.values.values())
        if f.carrier != B.carrier(s) or not unit or len(f.values) != len(f.carrier):
            raise BadMultiplierFamily(f"u[{S.label(s)}] is not unit modulus")
    for e in S.idem:
        for x in u[e].carrier:
            if u[e](x) != 1:
                raise BadMultiplierFamily(f"u at idempotent {S.label(e)} is not one")


def ref_extract_action(B, u) -> TwistedAction:
    S = B.S
    info = ref_classify_bundle(B)
    if not info["saturated"]:
        raise NotSaturated(str(info["unsaturated_pairs"]))
    if not info["semi_abelian"]:
        raise NotSemiAbelian("an idempotent fiber is noncommutative")
    ref_check_multiplier_family(B, u)
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
        if len(set(mapping.values())) < len(mapping):
            raise ValueError("mapping is not injective")
        theta[s] = mapping
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
    return TwistedAction(S, X, U, theta, omega_dicts(omega))


def ref_roundtrip_check(A):
    B = ref_build_bundle(A)
    A2 = ref_extract_action(B, {s: CFunction.one(B.carrier(s)) for s in A.S.elements()})
    ok = A.equals(A2)
    diff = None
    if not ok:
        diff = []
        for s in A.S.elements():
            if A.theta[s] != A2.theta[s]:
                diff.append(("theta", A.S.label(s)))
        omega, omega2 = cfunctions(A.omega), cfunctions(A2.omega)
        for key, w in omega.items():
            if not w.equals(omega2[key]):
                diff.append(("omega", (A.S.label(key[0]), A.S.label(key[1]))))
    return ok, diff


# ---------------------------------------------------------------------------
# parity

def _same_action(A, ref) -> bool:
    """Equal actions, Angles exactly and complex values within 1e-12: the
    rows multiply complex values with numpy, which may round differently."""
    omega = cfunctions(ref.omega)
    return (A.X == ref.X and A.U == ref.U and A.theta == ref.theta
            and all(w.equals(omega[key], tol=1e-12) for key, w in cfunctions(A.omega).items()))


def _same_tables(B, ref: Tables):
    got = tables(B)
    assert got.carriers == ref.carriers
    assert got.products == ref.products
    assert got.stars == ref.stars
    assert got.inclusions == ref.inclusions


def _rows_of(ref: Tables, B):
    """The reference tables as rows, numbered as B numbers its points."""
    ref.points = dict(enumerate(B.points))
    return ref.bundle()


def _outcome(f, *args):
    try:
        return f(*args)
    except (BundleError, KeyError, ValueError) as exc:
        return type(exc), str(exc)


def _same_reads(B, ref: Tables, seed: int):
    """The same verdicts and violation lists from B's rows as from the
    reference tables, through the row checks and the dict readers;
    verify_fell_bundle's too, each given Random(seed)."""
    R = _rows_of(ref, B)
    assert B.verify() == R.verify()
    rng, ref_rng = random.Random(seed), random.Random(seed)
    fell = verify_fell_bundle(B, rng=rng)
    assert fell == verify_fell_bundle(R, rng=ref_rng)
    assert rng.getstate() == ref_rng.getstate()
    info = classify_bundle(B)
    assert (info["witness"] is None) == (not all(info["regular"].values()))
    del info["witness"]
    assert info == ref_classify_bundle(ref)
    if info["saturated"] and info["semi_abelian"]:
        got = _outcome(extract_action, B, canonical_multipliers(B))
        want = _outcome(ref_extract_action, ref, multiplier_functions(B, canonical_multipliers(B)))
        if isinstance(want, TwistedAction):
            assert _same_action(got, want)
        else:
            assert got == want
    return fell[0]


def _same_refinement(B, ref: Tables):
    R, ref_R = RefinedBundle(B), ref_refined_bundle(ref)
    _same_tables(R, ref_R)
    m = refinement_morphism(R)
    ref_m = BundleMorphism(_rows_of(ref_R, R), _rows_of(ref, B), m.phi)
    assert verify_morphism(m) == verify_morphism(ref_m)
    assert verify_refinement(m) == verify_refinement(ref_m)
    return R, ref_R


def test_rows_match_the_dict_builders_on_the_corpus():
    verdicts = set()
    for i, A in enumerate(corpus(random.Random(0), 200)):
        B, ref = build_bundle(A), ref_build_bundle(A)
        _same_tables(B, ref)
        verdicts.add(_same_reads(B, ref, i))
        assert roundtrip_check(A) == ref_roundtrip_check(A)
        if i < 40:
            R, ref_R = _same_refinement(B, ref)
            verdicts.add(_same_reads(R, ref_R, 1000 + i))
    assert verdicts == {True}


def test_rows_match_the_dict_builders_on_the_mutants():
    # test_03's sweep: the same bases and the same 1000 mutants
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    verdicts = set()
    for i in range(1000):
        M = mutate_omega(bases[i % len(bases)], rng)
        B, ref = build_bundle(M), ref_build_bundle(M)
        _same_tables(B, ref)
        verdicts.add(_same_reads(B, ref, i))
        assert roundtrip_check(M) == ref_roundtrip_check(M)
    assert verdicts == {False}  # each mutant's bundle fails


def _section_cases():
    """The section bundles of test_06 and test_08, with the regular
    representations of test_06's."""
    for G in [standard_groupoids()[k] for k in ("z2", "z3", "pair2", "trans_z2")]:
        yield G, TwoCocycle.trivial(G), None, True
    G, tau = z2_nontrivial_cocycle()
    yield G, tau, None, True
    G = pair_groupoid([0, 1])
    yield G, TwoCocycle.trivial(G), None, False
    for B, _, _ in _non_saturated_examples():
        yield B.G, B.tau, B, False


def test_rows_match_the_dict_builders_on_section_bundles():
    for n, (G, tau, given, regular) in enumerate(_section_cases()):
        if given is None:
            S, biss, _ = bisection_semigroup(G)
            B, ref = SectionBundle(G, tau, S, biss), ref_section_bundle(G, tau, S, biss)
        else:
            B = given
            S = B.S
            carriers = {s: B.carrier(s) for s in S.elements()}
            ref = ref_section_bundle(G, tau, S, carriers, carriers)
        _same_tables(B, ref)
        assert _same_reads(B, ref, n)
        R, ref_R = _same_refinement(B, ref)
        assert _same_reads(R, ref_R, 100 + n)
        if regular:
            pi = to_bundle_rep(regular_covariant_rep(G, tau, S, biss), B)
            assert verify_representation(pi, B) == verify_representation(pi, _rows_of(ref, B))


def test_classification_matches_the_reference_on_moved_targets():
    # one product target moved to another point, inside or outside its fiber
    # (action bundles' idempotent fibers hold diagonal rows only; a group
    # algebra's fiber is commutative with rows off the diagonal)
    rng = random.Random(14)
    G = cyclic_group(3)
    cases = [tables(build_bundle(A)) for A in mutation_corpus(random.Random(2))]
    cases += [tables(convolution_algebra(G, TwoCocycle.trivial(G)))] * 4
    verdicts = set()
    for i in range(300):
        T = cases[i % len(cases)]
        points = sorted(frozenset().union(*T.carriers.values()), key=str) + ["elsewhere"]
        # every other case moves a row of an idempotent fiber's products
        keys = [(e, e) for e in T.S.idem] if i % 2 else list(T.products)
        rows = rng.choice([T.products[k] for k in keys if T.products[k]])
        xy = rng.choice(sorted(rows, key=str))
        z, c = rows[xy]
        rows[xy] = (rng.choice([w for w in points if w != z]), c)
        info = classify_bundle(T.bundle())
        del info["witness"]
        assert info == ref_classify_bundle(T)
        verdicts.add((info["saturated"], info["semi_abelian"]))
        rows[xy] = (z, c)
    assert {semi_abelian for _, semi_abelian in verdicts} == {True, False}


def test_non_angle_scalars_survive_the_kernel_builder(five):
    # one multiplier e^{0.3i} makes four omega values complex, which the
    # exponent kernel holds only as NOT_ANGLE; the rebuilt bundle must
    # carry them
    B = build_bundle(five)
    N, K, _ = canonical_multipliers(B)
    S = five.S
    s = next(a for a in S.elements() if not S.is_idempotent(a) and carrier(five, a))
    K, V = K.copy(), np.zeros(K.shape, dtype=complex)
    K[s, :B.cs[s]], V[s] = NOT_ANGLE, cmath.exp(0.3j)
    u = (N, K, V)
    A = extract_action(B, u)
    assert _same_action(A, ref_extract_action(ref_build_bundle(five), multiplier_functions(B, u)))
    odd = [(key, x) for key, w in A.omega.items() for x, v in w.items() if isinstance(v, complex)]
    assert len(odd) == 4
    B2 = build_bundle(A)
    _same_tables(B2, ref_build_bundle(A))
    assert _same_reads(B2, ref_build_bundle(A), 0)
    assert not B2.angles
    assert B2.verify() == (True, [])
    assert verify_fell_bundle(B2) == (True, [])
    info = classify_bundle(B2)
    assert info["saturated"] and info["semi_abelian"]
    assert not verify_twisted_action(A)[0]  # a complex omega value is no angle


def test_checks_do_not_change_a_bundle():
    # the morphism check widens both bundles' exponents and the
    # representation check needs complex values; neither may reach the rows
    G = pair_groupoid([0, 1])
    S, biss, _ = bisection_semigroup(G)
    tau = TwoCocycle.trivial(G)
    B = SectionBundle(G, tau, S, biss)
    R = RefinedBundle(B)
    rows = [a.copy() for a in B.products + B.stars + B.inclusions if a is not None]
    assert verify_morphism(refinement_morphism(R)) == (True, [])
    assert verify_representation(to_bundle_rep(regular_covariant_rep(G, tau, S, biss), B), B)[0]
    assert verify_fell_bundle(B) == (True, [])
    fresh = SectionBundle(G, tau, S, biss)
    assert B.verify() == fresh.verify() == (True, [])
    got, want = classify_bundle(B), classify_bundle(fresh)
    (N, K, V), witness = got.pop("witness"), want.pop("witness")
    assert N == witness[0] and np.array_equal(K, witness[1]) and V is witness[2] is None
    assert got == want
    after = [a for a in B.products + B.stars + B.inclusions if a is not None]
    assert len(rows) == len(after) and all(np.array_equal(x, y) for x, y in zip(rows, after))
    with pytest.raises(ValueError):  # the rows are read-only
        B.products[4][0] = 1
