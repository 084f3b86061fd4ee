"""Saturated refinements and preservation of germ data and algebras."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fellsem
from fellsem.algebra import block_decompose, germ_algebra
from fellsem.action import germ_groupoid
from fellsem.bundle import (Bundle, NotSaturated, SectionBundle, build_bundle,
                            canonical_multipliers, classify_bundle, extract_action,
                            verify_fell_bundle)
from fellsem.generators import busby_smith_z2, five_element_action
from fellsem.groupoid import (TwoCocycle, bisection_semigroup, cyclic_group,
                              pair_groupoid, z2_nontrivial_cocycle)
from fellsem.refine import (BundleMorphism, algebra_preservation_check,
                            germ_preservation_check, refinement_morphism,
                            saturated_refinement, verify_refinement)

from dense import Angle, homomorphism_outcome, ref_homomorphism_outcome, tables


def cut_z2_bundle():
    """Order-two group groupoid with the non-unit fiber killed."""
    G = cyclic_group(2)
    S, biss, wide = bisection_semigroup(G)
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    return SectionBundle(G, TwoCocycle.trivial(G), S, biss, carriers={g: frozenset()})


def cut_pair3_bundle():
    """Three-point pair groupoid, cyclic bisection fiber cut to one arrow."""
    G = pair_groupoid([0, 1, 2])
    cyc = frozenset(a for a in G.arrows() if (G.rng[a] - G.src[a]) % 3 == 1)
    S, biss, wide = bisection_semigroup(G, generators=[cyc])
    arrow = {(G.rng[a], G.src[a]): a for a in G.arrows()}
    sT = next(i for i, b in enumerate(biss)
              if arrow[(1, 0)] in b and not S.is_idempotent(i))
    carriers = {sT: frozenset({arrow[(1, 0)]}),
                S.inv[sT]: frozenset({arrow[(0, 1)]})}
    return SectionBundle(G, TwoCocycle.trivial(G), S, biss, carriers=carriers)


def test_refinement_of_saturated_action_bundles(busby, five, full_i2):
    for A in (busby, five, full_i2):
        B = build_bundle(A)
        R, m = saturated_refinement(B)
        ok, bad = verify_refinement(m)
        assert ok, bad
        assert classify_bundle(R)["saturated"]


def test_germ_and_algebra_preserved_for_pair_groupoid(rng):
    G = pair_groupoid([0, 1])
    S, biss, wide = bisection_semigroup(G)
    B = SectionBundle(G, TwoCocycle.trivial(G), S, biss)
    R, m = saturated_refinement(B)
    assert verify_refinement(m)[0]
    ok, mapping, (GR, GB) = germ_preservation_check(m)
    assert ok, mapping
    assert GR.arrow_count == GB.arrow_count
    # the check reads the base frame's germ groupoid and builds no twist
    assert "germ_pair" in vars(GB.A.frame) and not {"twist", "pair"} & vars(GB).keys()
    report = algebra_preservation_check(m)
    assert report["ok"], report
    assert report["blocks_refined"] == [2]
    assert report["blocks_base"] == [2]


def test_germ_and_algebra_preserved_for_twisted_z2():
    G, tau = z2_nontrivial_cocycle()
    S, biss, wide = bisection_semigroup(G)
    B = SectionBundle(G, tau, S, biss)
    R, m = saturated_refinement(B)
    assert verify_refinement(m)[0]
    assert germ_preservation_check(m)[0]
    report = algebra_preservation_check(m)
    assert report["ok"], report
    assert report["blocks_refined"] == report["blocks_base"] == [1, 1]


def test_cut_z2_bundle_refines_to_saturated(rng):
    B = cut_z2_bundle()
    assert verify_fell_bundle(B, rng=rng)[0]
    assert not classify_bundle(B)["saturated"]
    R, m = saturated_refinement(B)
    ok, bad = verify_refinement(m)
    assert ok, bad
    assert classify_bundle(R)["saturated"]
    with pytest.raises(NotSaturated):
        germ_preservation_check(m)
    # the refined bundle carries only the unit germ
    act = extract_action(R, canonical_multipliers(R))
    GR = germ_groupoid(act)
    assert GR.arrow_count == 1
    assert block_decompose(germ_algebra(act, GR)) == [1]


def test_cut_pair3_bundle_refines_to_support_subgroupoid(rng):
    B = cut_pair3_bundle()
    assert verify_fell_bundle(B, rng=rng)[0]
    assert not classify_bundle(B)["saturated"]
    R, m = saturated_refinement(B)
    ok, bad = verify_refinement(m)
    assert ok, bad
    assert classify_bundle(R)["saturated"]
    act = extract_action(R, canonical_multipliers(R))
    GR = germ_groupoid(act)
    # surviving arrows: the pair groupoid on {0, 1} plus the unit at 2
    assert GR.arrow_count == 5
    assert block_decompose(germ_algebra(act, GR)) == [1, 2]


def test_refinement_morphism_is_surjective_with_weights(five):
    B = build_bundle(five)
    R, m = saturated_refinement(B)
    assert m.phi.is_surjective
    assert set(m.phi(i) for i in R.S.elements()) == set(five.S.elements())


@pytest.mark.parametrize("table, tag", [("products", "multiplicative"), ("stars", "star"),
                                        ("inclusions", "inclusion")])
def test_corrupted_refined_entry_is_flagged(five, table, tag):
    R, m = saturated_refinement(build_bundle(five))
    T = tables(R)
    phase = Angle("1/4")
    entries = next(e for e in getattr(T, table).values() if e)
    key = next(iter(entries))
    if table == "inclusions":
        entries[key] = phase * entries[key]
    else:
        z, c = entries[key]
        entries[key] = (z, phase * c)
    ok, bad = verify_refinement(BundleMorphism(T.bundle(), m.A, m.phi))
    assert not ok
    assert tag in {t for t, _ in bad}


def test_refined_fiber_gaining_a_point_is_reported(five):
    R, m = saturated_refinement(build_bundle(five))
    points = frozenset().union(*tables(m.A).carriers.values())
    i = next(i for i in R.S.elements() if points - m.A.carrier(m.phi(i)))
    x = min(points - m.A.carrier(m.phi(i)), key=str)
    T = tables(R)
    T.carriers[i] = R.carrier(i) | {x}
    ok, bad = verify_refinement(BundleMorphism(T.bundle(), m.A, m.phi))
    assert not ok
    assert bad == [("fiber-not-injective", (R.S.label(i), x))]


def pair2_bundle():
    G = pair_groupoid([0, 1])
    S, biss, wide = bisection_semigroup(G)
    return SectionBundle(G, TwoCocycle.trivial(G), S, biss)


def test_refinement_morphisms_match_the_reference():
    """IsgHomomorphism and is_essentially_injective against the former loops
    on the refinement morphisms of the two cut bundles and of pair2, and on
    the same maps with one entry moved to each other element."""
    outcomes = []
    for B in (cut_z2_bundle(), cut_pair3_bundle(), pair2_bundle()):
        R, m = saturated_refinement(B)
        maps = [m.phi.map] + [m.phi.map[:i] + [v] + m.phi.map[i + 1:]
                              for i in R.S.elements() for v in B.S.elements() if v != m.phi(i)]
        outcomes += [(homomorphism_outcome(R.S, B.S, phi), ref_homomorphism_outcome(R.S, B.S, phi))
                     for phi in maps]
    assert [got for got, want in outcomes] == [want for got, want in outcomes]
    assert {got[0] is None for got, want in outcomes} == {True, False}


def test_algebra_transport_is_exact():
    """A product exponent of the refined pair2 bundle moved by one at N =
    2^40 changes its constant by a turn of 2^-40, far inside tol; the germ
    algebras then differ in three of their eight product constants."""
    B = pair2_bundle()
    R, m = saturated_refinement(B)
    assert R.N == 1  # the trivial cocycle: every exponent is 0, at any N
    pair, x, y, z, K, V = R.products
    S, N = R.S, 2 ** 40
    row = next(i for i, p in enumerate(pair.tolist())
               if not S.is_idempotent(p // S.n) and not S.is_idempotent(p % S.n))
    moved = np.zeros(len(pair), dtype=np.int64)
    moved[row] = 1
    R2 = Bundle(S, R.points, N, (pair, x, y, z, moved, V), R.stars, R.inclusions,
                "refined", base=R.base, phi=R.phi)
    m2 = BundleMorphism(R2, B, m.phi)
    assert not verify_refinement(m2)[0]
    report = algebra_preservation_check(m2)
    assert not report["ok"]
    assert report["dim_refined"] == report["dim_base"] == 4
    assert len([t for t, _ in report["mismatches"] if t == "product"]) == 3


ORDERS = """
import json
from fellsem.action import TwistedAction
from fellsem.bundle import Bundle, build_bundle
from fellsem.groupoid import FiniteGroupoid, TwoCocycle, action_from_cocycle, bisection_semigroup
from fellsem.refine import BundleMorphism, saturated_refinement, verify_refinement
from fellsem.reps import regular_covariant_rep, verify_covariant
# the str-labelled pair groupoid on three objects, with rho_x scaled by 1 + x
G = FiniteGroupoid.from_json(json.load(open("data/pair_groupoid.json")))
tau = TwoCocycle.trivial(G)
S, biss, wide = bisection_semigroup(G)
R = regular_covariant_rep(G, tau, S, biss)
R.rho = {x: m * (1 + int(x)) for x, m in R.rho.items()}
conjugation = [v for v in verify_covariant(R, action_from_cocycle(G, tau, S, biss, wide))[1]
               if v[0] == "conjugation"]
# the refinement of the str-pointed five-element bundle, every fiber
# gaining the points it lacks
R5, m = saturated_refinement(build_bundle(
    TwistedAction.from_json(json.load(open("data/five_element_s.json")))))
points = [p + tuple(x for x in ("0", "1") if x not in p) for p in R5.points]
B = Bundle(R5.S, points, R5.N, R5.products, R5.stars, R5.inclusions, "refined",
           base=R5.base, phi=R5.phi)
print(json.dumps([conjugation, verify_refinement(BundleMorphism(B, m.A, m.phi))[1]]))
"""


def test_violation_order_does_not_depend_on_the_hash_seed():
    # the conjugation violations of a covariant pair and the fiber
    # violations of a refinement list points in the frame's or the fiber's
    # order, not in the iteration order of a set of str points
    root = os.path.dirname(os.path.dirname(os.path.dirname(fellsem.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    out = [subprocess.run([sys.executable, "-c", ORDERS], env={**env, "PYTHONHASHSEED": seed},
                          capture_output=True, text=True, check=True, timeout=120, cwd=root).stdout
           for seed in ("1", "2", "3")]
    conjugation, refinement = json.loads(out[0])
    assert out[1] == out[0] and out[2] == out[0]
    at = conjugation.index(["conjugation", ["{0<1,1<0}", "0"]])
    assert conjugation[at + 1] == ["conjugation", ["{0<1,1<0}", "1"]]
    assert refinement[:2] == [["fiber-not-injective", ["({}|)", "0"]],
                              ["fiber-not-injective", ["({}|)", "1"]]]
