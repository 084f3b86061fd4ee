"""Covariant representations and bundle representations."""

import numpy as np

from fellsem.bundle import SectionBundle, build_bundle
from fellsem.generators import standard_groupoids
from fellsem.groupoid import (TwoCocycle, action_from_cocycle, bisection_semigroup,
                              z2_nontrivial_cocycle)
from fellsem.reps import (regular_covariant_rep, reps_equal, to_bundle_rep,
                          to_covariant, verify_covariant, verify_representation)


def regular_setup(G, tau):
    S, biss, wide = bisection_semigroup(G)
    A = action_from_cocycle(G, tau, S, biss, wide)
    R = regular_covariant_rep(G, tau, S, biss)
    B = SectionBundle(G, tau, S, biss)
    return S, biss, A, R, B


def test_regular_rep_is_covariant_on_all_examples():
    for name, G in standard_groupoids().items():
        S, biss, A, R, B = regular_setup(G, TwoCocycle.trivial(G))
        ok, bad = verify_covariant(R, A)
        assert ok, (name, bad)


def test_conversion_round_trip_on_all_examples():
    for name, G in standard_groupoids().items():
        S, biss, A, R, B = regular_setup(G, TwoCocycle.trivial(G))
        pi = to_bundle_rep(R, B)
        ok, bad = verify_representation(pi, B)
        assert ok, (name, bad)
        back = to_covariant(pi, B, A)
        assert reps_equal(R, back), name


def test_twisted_z2_regular_rep():
    G, tau = z2_nontrivial_cocycle()
    S, biss, A, R, B = regular_setup(G, tau)
    ok, bad = verify_covariant(R, A)
    assert ok, bad
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    vg = R.v[g]
    # the order-two unitary squares to minus the identity under the twist
    assert np.allclose(vg @ vg, -np.eye(R.d))


def test_twisted_round_trip():
    G, tau = z2_nontrivial_cocycle()
    S, biss, A, R, B = regular_setup(G, tau)
    pi = to_bundle_rep(R, B)
    assert verify_representation(pi, B)[0]
    back = to_covariant(pi, B, A)
    assert reps_equal(R, back)


def test_action_bundle_representation(five):
    # the regular construction also represents bundles built from actions:
    # go through the germ-free route by representing the action bundle of a
    # cocycle action directly
    from fellsem.generators import cocycle_action
    from fellsem.groupoid import cyclic_group
    G = cyclic_group(2)
    tau = TwoCocycle.trivial(G)
    S, biss, A, R, B = regular_setup(G, tau)
    AB = build_bundle(A)
    pi = to_bundle_rep(R, AB)
    ok, bad = verify_representation(pi, AB)
    assert ok, bad


def test_broken_rep_is_flagged():
    G, tau = z2_nontrivial_cocycle()
    S, biss, A, R, B = regular_setup(G, tau)
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    R.v[g] = -R.v[g] * 1j + 0.1 * np.eye(R.d)
    ok, bad = verify_covariant(R, A)
    assert not ok


def test_phase_scaled_pi_matrix_is_flagged():
    G, tau = z2_nontrivial_cocycle()
    S, biss, A, R, B = regular_setup(G, tau)
    pi = to_bundle_rep(R, B)
    g = next(i for i in S.elements() if biss[i] and not S.is_idempotent(i))
    x = next(iter(B.carrier(g)))
    pi.mats[(g, x)] = 1j * pi.mats[(g, x)]
    ok, bad = verify_representation(pi, B)
    assert not ok
    assert {"multiplicative", "star"} <= {tag for tag, _ in bad}
