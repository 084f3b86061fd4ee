"""Twisted actions: axioms, derived identities, gauges, germs, Sieben."""

import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fellsem
from fellsem.action import (NOT_ANGLE, OUTSIDE, ActionError, GaugeNotUnitAtIdempotent,
                            TwistedAction, check_sieben, gauge_transform, germ_groupoid, siebenize,
                            verify_consequences, verify_twisted_action)
from fellsem.generators import (busby_smith_z2, cocycle_action, corpus, five_element_action,
                                full_monoid_action, mutate_omega, random_gauge,
                                random_valid_action)
from fellsem.groupoid import TwoCocycle, cyclic_group

from dense import carrier


def test_busby_smith_action_verifies(busby):
    ok, bad = verify_twisted_action(busby)
    assert ok, bad
    ok, bad = verify_consequences(busby)
    assert ok, bad


def test_five_element_action_verifies(five):
    ok, bad = verify_twisted_action(five)
    assert ok, bad
    assert check_sieben(five)[0]


def test_full_i2_action_verifies(full_i2):
    ok, bad = verify_twisted_action(full_i2)
    assert ok, bad
    ok, bad = verify_consequences(full_i2)
    assert ok, bad


def test_corrupted_omega_is_flagged(full_i2, rng):
    M = mutate_omega(full_i2, rng)
    assert not (verify_twisted_action(M)[0] and verify_consequences(M)[0])


def test_gauge_transform_round_trip(five, rng):
    N, C = random_gauge(five, rng)
    gauged = gauge_transform(five, (N, C))
    assert verify_twisted_action(gauged)[0]
    back = gauge_transform(gauged, (N, np.where(C >= 0, -C % N, C)))  # the conjugate gauge
    assert back.equals(five)


def test_gauge_must_be_trivial_on_idempotents(busby):
    C = np.zeros((busby.S.n, busby.frame.m), dtype=np.int64)
    C[busby.S.idem[0], 0] = 1  # chi_e(0) = -1
    with pytest.raises(GaugeNotUnitAtIdempotent):
        gauge_transform(busby, (2, C))


@pytest.mark.parametrize("name", ["U", "th", "fib", "in_X", "inv", "idem",
                                  "thi", "fib_of_product", "slots", "pairs", "cocycle"])
def test_frame_arrays_are_read_only(name):
    # the cached tables are built from the others, so none may change
    F = full_monoid_action(2).frame
    a = getattr(F, name)
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = a[(0,) * a.ndim]


def test_gauge_undefined_at_a_needed_point(five, rng):
    N, C = random_gauge(five, rng)
    S, F = five.S, five.frame
    s = next(a for a in S.elements() if not S.is_idempotent(a) and carrier(five, a))
    x = int(np.flatnonzero(F.fib[s])[0])
    C[s, x] = OUTSIDE
    with pytest.raises(ActionError, match=re.escape(f"gauge for {S.label(s)} undefined at {F.points[x]}")):
        gauge_transform(five, (N, C))


def test_germ_groupoid_of_full_i2(full_i2):
    G = germ_groupoid(full_i2)
    # germs of partial injections on 2 points: the pair groupoid on 2 points
    assert G.arrow_count == 4
    ok, bad = G.verify()
    assert ok, bad


def test_germ_groupoid_identifies_restrictions(five):
    # s and its restriction s|s*s have the same germ everywhere, and a
    # point outside U(s*s) makes no pair
    G = germ_groupoid(five)
    S = five.S
    for s in S.elements():
        e = S.mul(S.inv[s], s)
        for x in five.U[e]:
            assert G.germ(s, x) == G.germ(S.mul(s, e), x)
        for x in set(five.X) - five.U[e]:
            with pytest.raises(KeyError):
                G.coord(s, x)


def test_gauge_can_break_coherence_and_siebenize_restores_it(full_i2):
    # rescale one non-idempotent strictly below the identity; omega(s, e)
    # picks up chi_s conj(chi_{se}) which is no longer 1 for e < s*s
    S = full_i2.S
    s = next(a for a in S.elements() if not S.is_idempotent(a)
             and len(carrier(full_i2, a)) == 2)
    C = np.zeros((S.n, full_i2.frame.m), dtype=np.int64)
    C[s] = 1  # chi_s = 1/3 of a turn
    gauged = gauge_transform(full_i2, (3, C))
    assert verify_twisted_action(gauged)[0]
    assert not check_sieben(gauged)[0]
    chi2, fixed = siebenize(gauged)
    ok, bad = check_sieben(fixed)
    assert ok, bad
    assert verify_twisted_action(fixed)[0]


def test_siebenize_random_corpus(rng):
    for _ in range(10):
        A = random_valid_action(rng)
        chi, fixed = siebenize(A)
        assert check_sieben(fixed)[0]
        assert verify_twisted_action(fixed)[0]
        assert verify_consequences(fixed)[0]


def test_cocycle_action_with_nontrivial_twist():
    G = cyclic_group(3)
    tau = TwoCocycle.coboundary(G, {a: Fraction(1, 4) for a in G.arrows()
                                    if not G.is_unit(a)})
    A, _ = cocycle_action(G, tau)
    assert verify_twisted_action(A)[0]
    assert verify_consequences(A)[0]


DRAWS = """
import json, random
import numpy as np
from fellsem.action import TwistedAction, widen
from fellsem.generators import full_monoid_action, mutate_omega, random_gauge
A = TwistedAction.from_json(full_monoid_action(3).to_json())  # str points
N, C = random_gauge(A, random.Random(0))
rng, mutants = random.Random(1), []
for _ in range(50):
    M = mutate_omega(A, rng)
    s, t, x = np.argwhere(M.W != widen(A.W, A.N, M.N))[0].tolist()
    mutants.append([s, t, M.frame.points[x], int(M.W[s, t, x]), M.N])
print(json.dumps([N, C.tolist(), mutants]))
"""


def test_draws_do_not_depend_on_the_hash_seed():
    # random_gauge and mutate_omega draw over the frame's point order, not
    # over the iteration order of a set of str points
    src = os.path.dirname(os.path.dirname(fellsem.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = [subprocess.run([sys.executable, "-c", DRAWS], env={**env, "PYTHONHASHSEED": seed},
                          capture_output=True, text=True, check=True, timeout=120).stdout
           for seed in ("1", "2")]
    assert out[0] and out[0] == out[1]


def test_gauge_preserves_germ_classes(five, rng):
    chi = random_gauge(five, rng)
    gauged = gauge_transform(five, chi)
    G1, G2 = germ_groupoid(five), germ_groupoid(gauged)
    assert G1.arrow_count == G2.arrow_count
    S = five.S
    for t in S.elements():
        for x in five.U[S.mul(S.inv[t], t)]:
            assert G1.germ(t, x) == G2.germ(t, x)
            assert G1.rep(G1.germ(t, x)) == G2.rep(G2.germ(t, x))


def test_corrupted_inclusion_scalar_is_a_transition_conflict():
    # on I_3 the idempotents id_{0} < id_{0,1} < 1 give three edges at the
    # point 0 that form a cycle; the edge from id_{0} to 1 carries the
    # conjugate of omega(1, id_{0}) at 0
    A = full_monoid_action(3)
    S = A.S
    one = next(e for e in S.idem if len(A.U[e]) == 3)
    e0 = next(e for e in S.idem if A.U[e] == {0})
    assert germ_groupoid(A).verify()[0]
    omega = {**A.omega, (one, e0): {**A.omega[(one, e0)], 0: Fraction(1, 3)}}
    bad_action = TwistedAction(S, A.X, A.U, A.theta, omega)
    ok, bad = germ_groupoid(bad_action).verify()
    assert not ok and {tag for tag, _ in bad} == {"transition"}, bad
    assert not verify_twisted_action(bad_action)[0]


def test_a_unit_violation_is_no_transition_conflict():
    # omega(s, s*s) is no inclusion scalar: an action that breaks only the
    # unit axiom there keeps its germs and coordinates, and the germ
    # groupoid's verify finds nothing
    A = full_monoid_action(3)
    S = A.S
    s = next(a for a in S.elements() if not S.is_idempotent(a))
    e = S.mul(S.inv[s], s)
    w = A.omega[(s, e)]
    omega = {**A.omega, (s, e): {**w, min(w): Fraction(1, 3)}}
    bad_action = TwistedAction(S, A.X, A.U, A.theta, omega)
    assert not verify_twisted_action(bad_action)[0]
    G, H = germ_groupoid(A), germ_groupoid(bad_action)
    assert H.verify() == (True, [])
    for t in S.elements():
        for x in A.U[S.mul(S.inv[t], t)]:
            assert (H.germ(t, x), H.coord(t, x)) == (G.germ(t, x), G.coord(t, x))


def test_json_round_trip(busby):
    # serialization stringifies points, so compare after one normalizing pass
    loaded = TwistedAction.from_json(busby.to_json())
    assert verify_twisted_action(loaded)[0]
    again = TwistedAction.from_json(loaded.to_json())
    assert again.equals(loaded)
    assert loaded.to_json() == busby.to_json()


@pytest.mark.parametrize("k", [2, 3])
def test_json_round_trip_with_comma_labels(k):
    # the labels of I_k, such as {0>0,1>1}, contain the key separator
    data = full_monoid_action(k).to_json()
    loaded = TwistedAction.from_json(data)
    assert loaded.to_json() == data
    assert verify_twisted_action(loaded)[0]


def test_json_omega_key_must_split_once(busby):
    data = busby.to_json()
    data["omega"]["1,g,1"] = data["omega"].pop("1,g")
    with pytest.raises(ValueError, match="exactly one way"):
        TwistedAction.from_json(data)


# ---------------------------------------------------------------------------
# the scalar convention: a turn, or a complex number where a value is not an angle

@pytest.mark.parametrize("value, turn", [
    (0, Fraction(0)), (3, Fraction(0)), (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(-1, 4), Fraction(3, 4)), ("1/2", Fraction(1, 2)), ("5/3", Fraction(2, 3)),
])
def test_an_int_a_fraction_and_text_are_turns(busby, value, turn):
    A = TwistedAction(busby.S, busby.X, busby.U, busby.theta, {**busby.omega, (1, 1): {0: value}})
    assert A.V is None and A.omega[(1, 1)] == {0: turn} and A.omega[(1, 1)](0) == turn
    assert type(A.omega[(1, 1)](0)) is Fraction
    assert A.W[1, 1, 0] * turn.denominator == turn.numerator * A.N


@pytest.mark.parametrize("value", [-1 + 0j, 1j, 0j])
def test_a_complex_value_is_a_value_and_0j_is_zero(busby, value):
    A = TwistedAction(busby.S, busby.X, busby.U, busby.theta, {**busby.omega, (1, 1): {0: value}})
    assert A.W[1, 1, 0] == NOT_ANGLE and A.V[1, 1, 0] == value
    assert A.omega[(1, 1)] == {0: value} and type(A.omega[(1, 1)](0)) is complex
    assert verify_twisted_action(A) == (False, [("structure", ("omega-not-unit", ("g", "g", 0)))])


def test_a_point_the_json_leaves_out_is_zero(busby):
    data = busby.to_json()
    data["omega"]["g,g"] = {}
    loaded, full = TwistedAction.from_json(data), TwistedAction.from_json(busby.to_json())
    zero = TwistedAction(full.S, full.X, full.U, full.theta, {**full.omega, (1, 1): {"0": 0j}})
    assert loaded.N == zero.N and np.array_equal(loaded.W, zero.W) and np.array_equal(loaded.V, zero.V)


def test_the_constructor_and_from_json_give_the_same_arrays():
    for A in corpus(random.Random(0), 200):
        data = A.to_json()
        made = TwistedAction(A.S, A.X, A.U, A.theta, A.omega)
        loaded = TwistedAction.from_json(data)
        assert made.N == loaded.N and made.V is loaded.V is None
        assert np.array_equal(made.W, loaded.W) and np.array_equal(made.frame.th, loaded.frame.th)
        assert made.equals(A) and made.to_json() == loaded.to_json() == data


def test_a_theta_that_is_not_injective_is_rejected(five):
    S = five.S
    s = next(a for a in S.elements() if not S.is_idempotent(a) and carrier(five, a))
    x, y = five.X
    with pytest.raises(ValueError, match="^mapping is not injective$"):
        TwistedAction(S, five.X, five.U, {**five.theta, s: {x: y, y: y}}, five.omega)
