"""Saturated refinements and preservation of germ data and algebras."""

import pytest

from fellsem.algebra import block_decompose, germ_algebra
from fellsem.action import germ_groupoid
from fellsem.bundle import (NotSaturated, SectionBundle, build_bundle,
                            canonical_multipliers, classify_bundle, extract_action,
                            verify_fell_bundle)
from fellsem.generators import busby_smith_z2, five_element_action
from fellsem.groupoid import (TwoCocycle, bisection_semigroup, cyclic_group,
                              pair_groupoid, z2_nontrivial_cocycle)
from fellsem.refine import (BundleMorphism, algebra_preservation_check,
                            germ_preservation_check, refinement_morphism,
                            saturated_refinement, verify_refinement)

from dense import Angle, tables


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
