"""The exponent-array kernel against the dict implementations it replaced.

The reference functions below are the former pointwise implementations of
the action axioms, their consequences, the Sieben condition, gauges,
siebenize, single-point omega mutation and the inverse-semigroup laws,
reading omega as a dict of CFunctions, theta as dicts and the Cayley
table as nested lists.
The kernel must give the same verdicts and the same violation multisets,
and exactly equal gauged, siebenized and mutated actions.
"""

import cmath
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np
import pytest

from fellsem.action import (NOT_ANGLE, OUTSIDE, ActionError, Frame, GaugeNotUnitAtIdempotent,
                            GermGroupoid, TwistedAction, check_sieben, gauge_transform, siebenize,
                            verify_consequences, verify_twisted_action, widen)
from fellsem.bundle import SectionBundle, build_bundle, canonical_multipliers, extract_action
from fellsem.generators import (corpus, five_element_semigroup, full_monoid_action,
                                mutate_omega, mutation_corpus, random_gauge, sub_monoid_action,
                                untwisted_action)
from fellsem.groupoid import TwoCocycle, bisection_semigroup, pair_groupoid
from fellsem.isg import (IdempotentsDontCommute, InverseSemigroup, IsgError, NoInverse,
                         NonAssociative, symmetric_inverse_monoid, verify_inverse_semigroup)
from fellsem.refine import saturated_refinement

from dense import (Angle, CFunction, as_angle, carrier, cfunctions, compose, gauge_functions, invert,
                   omega_dicts, ref_omega_at, restrict)


# ---------------------------------------------------------------------------
# reference implementations

def untwisted_omega(S, U) -> dict:
    """The constant-one cocycle on the carriers U."""
    omega = {}
    for s in S.elements():
        for t in S.elements():
            st = S.mul(s, t)
            omega[(s, t)] = dict.fromkeys(U[S.mul(st, S.inv[st])], 0)
    return omega


def ref_structural_violations(A):
    S, om = A.S, cfunctions(A.omega)
    out = []
    covered = set()
    for e in S.idem:
        covered |= A.U[e]
    if covered != set(A.X):
        out.append(("carrier-cover", sorted(set(A.X) - covered)))
    for s in S.elements():
        ss = S.mul(s, S.inv[s])
        if A.U[s] != A.U[ss]:
            out.append(("carrier-mismatch", S.label(s)))
        th = A.theta[s]
        if set(th) != A.U[S.mul(S.inv[s], s)] or set(th.values()) != A.U[ss]:
            out.append(("theta-endpoints", S.label(s)))
    for e in S.idem:
        if A.theta[e] != {x: x for x in A.U[e]}:
            out.append(("theta-not-identity", S.label(e)))
    for s in S.elements():
        for t in S.elements():
            w = om[(s, t)]
            if w.carrier != carrier(A, S.mul(s, t)):
                out.append(("omega-carrier", (S.label(s), S.label(t))))
            for x in w.carrier:
                if not isinstance(w(x), Angle):
                    out.append(("omega-not-unit", (S.label(s), S.label(t), x)))
    return out


def ref_verify_twisted_action(A):
    S, om = A.S, cfunctions(A.omega)
    violations = [("structure", v) for v in ref_structural_violations(A)]
    if violations:
        return False, violations
    for r in S.elements():
        for s in S.elements():
            if compose(A.theta[r], A.theta[s]) != A.theta[S.mul(r, s)]:
                violations.append(("composition", (S.label(r), S.label(s))))
    for r in S.elements():
        dom_r = A.U[S.mul(S.inv[r], r)]
        for s in S.elements():
            for t in S.elements():
                st = S.mul(s, t)
                for x in dom_r & carrier(A, st):
                    y = A.theta[r][x]
                    lhs = ref_omega_at(A, s, t, x) * ref_omega_at(A, r, st, y)
                    rhs = ref_omega_at(A, r, s, y) * ref_omega_at(A, S.mul(r, s), t, y)
                    if lhs != rhs:
                        violations.append(("cocycle", (S.label(r), S.label(s), S.label(t), x)))
    for e in S.idem:
        for f in S.idem:
            w = om[(e, f)]
            for x in w.carrier:
                if not as_angle(w(x)).is_one:
                    violations.append(("unit", (S.label(e), S.label(f), x)))
    for r in S.elements():
        for s, t in ((r, S.mul(S.inv[r], r)), (S.mul(r, S.inv[r]), r)):
            w = om[(s, t)]
            for x in w.carrier:
                if not as_angle(w(x)).is_one:
                    violations.append(("unit", (S.label(s), S.label(t), x)))
    for s in S.elements():
        ss = S.inv[s]
        for e in S.idem:
            se = S.mul(ss, e)
            ses = S.mul(se, s)
            for x in carrier(A, ses):
                lhs = ref_omega_at(A, ss, e, x) * ref_omega_at(A, se, s, x)
                if lhs != ref_omega_at(A, ss, s, x):
                    violations.append(("idempotent-splitting", (S.label(s), S.label(e), x)))
    return not violations, violations


def ref_verify_consequences(A):
    S, om = A.S, cfunctions(A.omega)
    out = []
    for s in S.elements():
        if A.theta[S.inv[s]] != invert(A.theta[s]):
            out.append(("inverse-map", S.label(s)))
    for r in S.elements():
        dom = A.U[S.mul(S.inv[r], r)]
        for s in S.elements():
            image = frozenset(A.theta[r][x] for x in dom & A.U[s])
            if image != carrier(A, S.mul(r, s)):
                out.append(("image", (S.label(r), S.label(s))))
    for r in S.elements():
        for s in S.elements():
            if S.leq(r, s) and not A.U[r] <= A.U[s]:
                out.append(("monotone", (S.label(r), S.label(s))))
            meet = S.mul(S.mul(r, S.inv[r]), S.mul(s, S.inv[s]))
            if A.U[r] & A.U[s] != A.U[meet]:
                out.append(("intersection", (S.label(r), S.label(s))))
    for s in S.elements():
        for t in S.elements():
            if S.leq(s, t):
                dom = A.U[S.mul(S.inv[s], s)]
                if restrict(A.theta[t], dom) != A.theta[s]:
                    out.append(("restriction", (S.label(s), S.label(t))))
    for s in S.elements():
        ss = S.inv[s]
        for y in carrier(A, S.mul(s, ss)):
            x = invert(A.theta[s])[y]
            if ref_omega_at(A, ss, s, x) != ref_omega_at(A, s, ss, y):
                out.append(("flip", (S.label(s), y)))
    for r in S.elements():
        rr = S.mul(S.inv[r], r)
        for e in S.idem:
            if S.leq(rr, e):
                w = om[(r, e)]
                for x in w.carrier:
                    if not as_angle(w(x)).is_one:
                        out.append(("dominating-unit", (S.label(r), S.label(e), x)))
    for s in S.elements():
        for t in S.elements():
            if not S.leq(s, t):
                continue
            ts = S.inv[t]
            e = S.mul(s, S.inv[s])
            for x in carrier(A, S.mul(ts, s)):
                lhs = ref_omega_at(A, ts, s, x)
                rhs = ref_omega_at(A, ts, e, x) * ref_omega_at(A, S.inv[s], s, x)
                if lhs != rhs:
                    out.append(("star-restriction", (S.label(s), S.label(t), x)))
    for r in S.elements():
        for s in S.elements():
            if not S.leq(r, s):
                continue
            for t in S.elements():
                if not S.leq(s, t):
                    continue
                rr = S.mul(S.inv[r], r)
                ssn = S.mul(S.inv[s], s)
                for y in carrier(A, S.mul(t, rr)):
                    lhs = ref_omega_at(A, t, rr, y)
                    rhs = ref_omega_at(A, t, ssn, y) * ref_omega_at(A, s, rr, y)
                    if lhs != rhs:
                        out.append(("chain", (S.label(r), S.label(s), S.label(t), y)))
    return not out, out


def ref_check_sieben(A):
    S, om = A.S, cfunctions(A.omega)
    bad = []
    for s in S.elements():
        for e in S.idem:
            for u, v in ((s, e), (e, s)):
                w = om[(u, v)]
                for x in w.carrier:
                    if not as_angle(w(x)).is_one:
                        bad.append((S.label(u), S.label(v), x))
    return not bad, bad


def ref_gauge_transform(A, chi):
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
    for (s, t), w in cfunctions(A.omega).items():
        st = S.mul(s, t)
        inv_s = invert(A.theta[s])
        vals = {}
        for y in w.carrier:
            vals[y] = (chi_at(s, y) * chi_at(t, inv_s[y])
                       * chi_at(st, y).conj() * as_angle(w(y)))
        omega[(s, t)] = CFunction(w.carrier, vals)
    return TwistedAction(S, A.X, A.U, A.theta, omega_dicts(omega))


def ref_siebenize(A):
    G = GermGroupoid(A)
    S = A.S
    chi = {}
    for s in S.elements():
        vals = {A.theta[s][x]: Angle(G.coord(s, x)).conj() for x in A.U[S.mul(S.inv[s], s)]}
        chi[s] = CFunction(carrier(A, s), vals)
    return chi, ref_gauge_transform(A, chi)


def ref_mutate_omega(A, rng):
    omega = cfunctions(A.omega)
    slots = [(key, x) for key, w in omega.items() for x in sorted(w.carrier, key=A.frame.index.get)]
    if not slots:
        return None
    (s, t), x = slots[rng.randrange(len(slots))]
    denom = rng.choice([2, 3, 4])
    shift = Angle(Fraction(rng.randrange(1, denom), denom))
    w = omega[(s, t)]
    vals = dict(w.values)
    vals[x] = shift * vals[x]
    omega[(s, t)] = CFunction(w.carrier, vals)
    return TwistedAction(A.S, A.X, A.U, A.theta, omega_dicts(omega))


def ref_verify_inverse_semigroup(table, labels=None):
    n = len(table)
    for a, row in enumerate(table):
        if len(row) != n:
            raise IsgError(f"row {a} has length {len(row)}, expected {n}")
        for b, v in enumerate(row):
            if not (0 <= v < n):
                raise IsgError(f"entry table[{a}][{b}] = {v} out of range")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise NonAssociative(a, b, c)
    inv = [-1] * n
    for a in range(n):
        for b in range(n):
            if table[table[a][b]][a] == a and table[table[b][a]][b] == b:
                inv[a] = b
                break
        if inv[a] < 0:
            raise NoInverse(a)
    idem = [e for e in range(n) if table[e][e] == e]
    for e, f in combinations(idem, 2):
        if table[e][f] != table[f][e]:
            raise IdempotentsDontCommute(e, f)
    return InverseSemigroup(table, inv, idem, labels)


# ---------------------------------------------------------------------------
# parity

def _same_verdicts(A):
    for new, ref in ((verify_twisted_action, ref_verify_twisted_action),
                     (verify_consequences, ref_verify_consequences),
                     (check_sieben, ref_check_sieben)):
        (ok, bad), (ref_ok, ref_bad) = new(A), ref(A)
        assert ok == ref_ok and Counter(bad) == Counter(ref_bad), (new.__name__, bad, ref_bad)


def _same_omega(A, B):
    """Exact equality read through the omega dicts, not through equals."""
    return dict(A.omega) == dict(B.omega)


def _same_gauges(A, rng):
    chi = random_gauge(A, rng)
    gauged, ref = gauge_transform(A, chi), ref_gauge_transform(A, gauge_functions(A, chi))
    assert gauged.equals(ref) and ref.equals(gauged) and _same_omega(gauged, ref)
    chi, fixed = siebenize(A)
    ref_chi, ref_fixed = ref_siebenize(A)
    chi = gauge_functions(A, chi)
    assert all(chi[s].equals(ref_chi[s]) for s in A.S.elements())
    assert fixed.equals(ref_fixed) and _same_omega(fixed, ref_fixed)
    return gauged


def parity_actions():
    """corpus(Random(0), 200), a gauged I_3 and the actions extracted from
    the saturated refinements of the acceptance suite's test_08."""
    from test_acceptance import _non_saturated_examples
    I3 = full_monoid_action(3)
    actions = corpus(random.Random(0), 200) + [gauge_transform(I3, random_gauge(I3, random.Random(3)))]
    G = pair_groupoid([0, 1])
    S, biss, _ = bisection_semigroup(G)
    for B in [B for B, _, _ in _non_saturated_examples()] + [SectionBundle(
            G, TwoCocycle.trivial(G), S, biss)]:
        R, _ = saturated_refinement(B)
        actions.append(extract_action(R, canonical_multipliers(R)))
    return actions


def test_kernel_matches_the_reference_on_the_corpus():
    rng = random.Random(5)
    for A in parity_actions():
        _same_verdicts(A)
        _same_verdicts(_same_gauges(A, rng))


def test_kernel_matches_the_reference_on_the_mutation_sweep():
    # test_03's sweep: the same bases and the same 1000 mutants
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    detected = 0
    for i in range(1000):
        M = mutate_omega(bases[i % len(bases)], rng)
        _same_verdicts(M)
        if not (verify_twisted_action(M)[0] and verify_consequences(M)[0]):
            detected += 1
    assert detected >= 990, detected


def test_array_mutants_equal_the_dict_mutants():
    # the dict mutant reads the omega view, listing each carrier in the
    # order mutate_omega uses
    I3 = full_monoid_action(3)
    bases = [gauge_transform(I3, random_gauge(I3, random.Random(3))), full_monoid_action(4)]
    bases += mutation_corpus(random.Random(2))
    for A in bases:
        for seed in range(3 if A.S.n > 100 else 25):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            M, ref = mutate_omega(A, rng), ref_mutate_omega(A, ref_rng)
            assert M.equals(ref) and _same_omega(M, ref)
            assert rng.random() == ref_rng.random()


def test_structural_defects_match_the_reference(five):
    S = five.S
    s = next(a for a in S.elements() if not S.is_idempotent(a) and carrier(five, a))
    e = next(a for a in S.idem if five.U[a])
    x = next(iter(carrier(five, s)))
    zero = dict.fromkeys(carrier(five, s), 0j)
    cases = [
        TwistedAction(S, five.X + ["z"], five.U, five.theta, five.omega),
        TwistedAction(S, five.X, {**five.U, s: frozenset()}, five.theta, five.omega),
        TwistedAction(S, five.X, five.U, {**five.theta, e: {}}, five.omega),
        TwistedAction(S, five.X, five.U, five.theta, {**five.omega, (s, s): dict.fromkeys(five.X, 0)}),
        TwistedAction(S, five.X, five.U, five.theta, {**five.omega, (e, s): zero}),
        TwistedAction(S, five.X, five.U, five.theta, {**five.omega, (e, s): {**zero, x: 0.5j}}),
    ]
    # no point in any carrier: over no points the action is valid, over
    # five.X nothing covers X
    empty = {a: frozenset() for a in S.elements()}
    nowhere = {a: {} for a in S.elements()}
    cases.append(TwistedAction(S, five.X, empty, nowhere, untwisted_omega(S, empty)))
    for A in cases:
        ok, bad = verify_twisted_action(A)
        ref_ok, ref_bad = ref_verify_twisted_action(A)
        assert not ok and not ref_ok and Counter(map(repr, bad)) == Counter(map(repr, ref_bad)), bad
    A = TwistedAction(S, [], empty, nowhere, untwisted_omega(S, empty))
    _same_verdicts(A)
    assert verify_twisted_action(A) == (True, [])
    _same_gauges(A, random.Random(0))


def _outcome(check, A):
    try:
        ok, bad = check(A)
    except (ActionError, KeyError) as exc:
        return type(exc)
    return ok, Counter(bad)


def test_maps_that_do_not_compose_match_the_reference(full_i2):
    # each non-idempotent theta_s of I_2 replaced by another bijection with
    # the same domain and range: the structure holds, composition fails, and
    # the cocycle family may meet omega values outside their carriers
    S, A = full_i2.S, full_i2
    seen = []
    for s in S.elements():
        th = A.theta[s]
        if S.is_idempotent(s) or len(th) < 2:
            continue
        other = dict(zip(th, reversed(list(th.values()))))
        B = TwistedAction(S, A.X, A.U, {**A.theta, s: other}, A.omega)
        for new, ref in ((verify_twisted_action, ref_verify_twisted_action),
                         (verify_consequences, ref_verify_consequences)):
            seen.append(_outcome(new, B))
            assert seen[-1] == _outcome(ref, B), new.__name__
    assert ActionError in seen


def _isg_outcome(verify, table):
    try:
        S = verify(table)
    except IsgError as exc:
        return type(exc), getattr(exc, "triple", getattr(exc, "element", getattr(exc, "pair", str(exc))))
    return S.inv, S.idem


def test_isg_laws_match_the_reference_on_corrupted_tables():
    rng = random.Random(7)
    tables = [symmetric_inverse_monoid(k).table for k in (1, 2, 3)]
    tables += [five_element_semigroup()[0].table, sub_monoid_action(3, [5, 9])[1].table,
               [[0, 1], [1, 0]], [[0, 1], [1, 1]], [[0, 0], [1, 1]]]
    seen = Counter()
    for _ in range(400):
        table = [list(row) for row in rng.choice(tables)]
        n = len(table)
        for _ in range(rng.choice([1, 1, 2])):
            table[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        outcome = _isg_outcome(verify_inverse_semigroup, table)
        assert outcome == _isg_outcome(ref_verify_inverse_semigroup, table), table
        seen[outcome[0] if isinstance(outcome[0], type) else "pass"] += 1
    for _ in range(300):
        n = rng.randrange(1, 5)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        outcome = _isg_outcome(verify_inverse_semigroup, table)
        assert outcome == _isg_outcome(ref_verify_inverse_semigroup, table), table
        seen[outcome[0] if isinstance(outcome[0], type) else "pass"] += 1
    assert set(seen) == {"pass", NonAssociative, NoInverse, IdempotentsDontCommute}, seen
    for bad in ([[0, 1], [1]], [[0, 2], [1, 0]], [[0, -1], [1, 0]]):
        assert _isg_outcome(verify_inverse_semigroup, bad) == _isg_outcome(ref_verify_inverse_semigroup, bad)


# ---------------------------------------------------------------------------
# wide denominators and values that are not angles

PRIMES = [1000003, 1000033, 1000037, 1000039, 1000081]


def _wide_gauge(A):
    """A gauge whose values cycle through five primes near 10**6, so the
    lcm of its denominators is far above 2**62."""
    S, F, N, i = A.S, A.frame, prod(PRIMES), 0
    C = np.where(F.fib, 0, OUTSIDE).astype(object)
    for s in S.elements():
        if not S.is_idempotent(s):
            for x in sorted(carrier(A, s)):
                i += 1
                C[s, F.index[x]] = i * (N // PRIMES[i % len(PRIMES)])
    return N, C


@pytest.mark.parametrize("k", [2, 3])
def test_wide_denominators_stay_exact(k):
    A = full_monoid_action(k)
    wide = gauge_transform(A, _wide_gauge(A))
    assert wide.N > 2 ** 62 and wide.W.dtype == object
    ref = ref_gauge_transform(A, gauge_functions(A, _wide_gauge(A)))
    assert wide.equals(ref) and _same_omega(wide, ref)
    # the JSON fixpoint: points become strings, so compare to_json, not equals
    data = wide.to_json()
    back = TwistedAction.from_json(data)
    assert back.N > 2 ** 62 and back.W.dtype == object
    assert back.to_json() == data and verify_twisted_action(back)[0]
    _same_verdicts(wide)
    _same_verdicts(ref)
    assert verify_twisted_action(wide)[0] and not check_sieben(wide)[0]
    rng = random.Random(11)
    for _ in range(10 if k == 2 else 2):
        _same_verdicts(mutate_omega(wide, rng))
    chi, fixed = siebenize(wide)
    assert check_sieben(fixed)[0] and fixed.equals(ref_siebenize(ref)[1])


def _one_value_negated(A, s, t, x):
    """A with omega(s, t) at x times -1: exponents mod 2N."""
    W = widen(A.W, A.N, 2 * A.N).copy()
    i = A.frame.index[x]
    W[s, t, i] = (W[s, t, i] + A.N) % (2 * A.N)
    return TwistedAction.from_exponents(A.frame, 2 * A.N, W)


def test_wide_exponents_report_the_same_cocycle_violations():
    # a gauge changes no axiom's verdict at any point, so one value
    # negated gives the same violations at int64 and with Python integers
    A = full_monoid_action(3)
    wide = gauge_transform(A, _wide_gauge(A))
    S = A.S
    s, t = S.index_of("{0>1,1>2,2>0}"), S.index_of("{0>2,1>0,2>1}")
    narrow, broad = _one_value_negated(A, s, t, 0), _one_value_negated(wide, s, t, 0)
    assert narrow.W.dtype == np.int64 and broad.N > 2 ** 62 and broad.W.dtype == object
    ok, bad = verify_twisted_action(narrow)
    assert not ok and sum(tag == "cocycle" for tag, _ in bad) > 10
    assert verify_twisted_action(broad) == (ok, bad)


def test_complex_omega_value_is_a_structural_violation(five):
    B = build_bundle(five)
    N, K, _ = canonical_multipliers(B)
    s = next(a for a in five.S.elements() if not five.S.is_idempotent(a) and carrier(five, a))
    K, V = K.copy(), np.zeros(K.shape, dtype=complex)
    K[s, :B.cs[s]], V[s] = NOT_ANGLE, cmath.exp(0.3j)
    A = extract_action(B, (N, K, V))
    ok, bad = verify_twisted_action(A)
    assert not ok and bad and {v[0] for _, v in bad} == {"omega-not-unit"}
    assert Counter(bad) == Counter(ref_verify_twisted_action(A)[1])
    assert not check_sieben(A)[0]


def test_a_value_that_is_not_an_angle_stops_the_germ_groupoid(full_i2):
    # omega({0>0,1>1}, {0>0}) at 0 is the inclusion scalar of {0>0} <=
    # {0>0,1>1}; as 1j it has no exponent, so the germ groupoid raises, as
    # gauge_transform does, while the omega view still reads the value
    S = full_i2.S
    t, e = S.index_of("{0>0,1>1}"), S.index_of("{0>0}")
    omega = dict(full_i2.omega)
    omega[(t, e)] = dict.fromkeys(omega[(t, e)], 1j)
    A = TwistedAction(S, full_i2.X, full_i2.U, full_i2.theta, omega)
    assert A.omega[(t, e)](0) == 1j and A.omega[(t, e)] == {0: 1j}
    assert verify_twisted_action(A) == (
        False, [("structure", ("omega-not-unit", ("{0>0,1>1}", "{0>0}", 0)))])
    with pytest.raises(ActionError, match="not an angle"):
        GermGroupoid(A)
    with pytest.raises(ActionError, match="not an angle"):
        gauge_transform(A, (1, np.zeros((S.n, A.frame.m), dtype=np.int64)))


# ---------------------------------------------------------------------------
# I_4, which the pointwise axioms took minutes on

def test_gauged_i4_passes_and_a_mutant_is_flagged():
    A = full_monoid_action(4)
    gauged = gauge_transform(A, random_gauge(A, random.Random(1)))
    assert verify_twisted_action(gauged)[0]
    assert verify_consequences(gauged)[0]
    M = mutate_omega(gauged, random.Random(2))
    assert not (verify_twisted_action(M)[0] and verify_consequences(M)[0])


def _kernels(A, chi):
    """The N and W of gauge_transform and siebenize, siebenize's gauge and
    the consequences' verdict, or the error each raises."""
    def run(f):
        try:
            return f()
        except (ActionError, KeyError) as exc:
            return type(exc), str(exc)
    gauged, (sieben_chi, fixed) = run(lambda: gauge_transform(A, chi)), run(lambda: siebenize(A))
    return [gauged.N, gauged.W, run(lambda: verify_consequences(A)), *sieben_chi, fixed.N, fixed.W]


def _fresh(A):
    """A over a Frame of its own, with none of its tables built yet."""
    F = A.frame
    return TwistedAction.from_exponents(Frame(F.S, F.X, F.sets, F.maps, F.points), A.N, A.W, A.V)


def test_cold_and_warm_frames_give_the_same_results():
    # the slot table is built by the first call that needs it: a new Frame
    # and one whose table an earlier call built read the same slots
    A = full_monoid_action(4)
    gauged = gauge_transform(A, random_gauge(A, random.Random(1)))
    rng, mutant = random.Random(2), gauged
    for _ in range(200):  # 17 consequence violations in four families
        mutant = mutate_omega(mutant, rng)
    assert len(verify_consequences(mutant)[1]) > 10
    chi = random_gauge(gauged, random.Random(3))
    for B in (gauged, mutant):
        cold = _fresh(B)
        assert "slots" not in vars(cold.frame) and "slots" in vars(B.frame)
        one, two = _kernels(cold, chi), _kernels(B, chi)
        assert "slots" in vars(cold.frame)
        for a, b in zip(one, two):
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_cold_and_warm_frames_give_the_same_cocycle_violations():
    # the frame keeps the cocycle table of a one-chunk scan (I_3) and builds
    # one per chunk for a longer one (I_4, listed after Light's test fails)
    I3, I4 = full_monoid_action(3), full_monoid_action(4)
    gauged = gauge_transform(I3, random_gauge(I3, random.Random(3)))
    rng, mutant = random.Random(2), gauged
    for _ in range(200):
        mutant = mutate_omega(mutant, rng)
    big = mutate_omega(gauge_transform(I4, random_gauge(I4, random.Random(1))), random.Random(2))
    for B, kept in ((gauged, True), (mutant, True), (big, False)):
        cold = _fresh(B)
        assert "cocycle" not in vars(cold.frame)
        one = verify_twisted_action(cold)
        assert (cold.frame.cocycle is not None) == kept
        verify_twisted_action(B)
        assert "cocycle" in vars(B.frame)
        assert verify_twisted_action(B) == one
    assert one[1] and all(tag == "cocycle" for tag, _ in one[1])
    assert sum(tag == "cocycle" for tag, _ in verify_twisted_action(mutant)[1]) > 100


# ---------------------------------------------------------------------------
# the first failure: each raise path of gauge_transform,
# verify_consequences and the cocycle family of maps that do not compose,
# on an input with more than one failing point, with the error the former
# dense scans raised

def _i2_with(theta=(), omega=()):
    """The tautological action of I_2 with some maps and omega values
    replaced, keyed by label."""
    A = full_monoid_action(2)
    S, th, om = A.S, dict(A.theta), dict(A.omega)
    th.update((S.index_of(s), m) for s, m in dict(theta).items())
    om.update(((S.index_of(s), S.index_of(t)), f) for (s, t), f in dict(omega).items())
    return TwistedAction(S, A.X, A.U, th, om)


def _gauge(A, holes=(), chi=None):
    """A's random gauge (or chi) with no value at the (label, point) holes."""
    N, C = chi or random_gauge(A, random.Random(0))
    C = C.copy()
    for s, x in holes:
        C[A.S.index_of(s), A.frame.index[x]] = OUTSIDE
    return N, C


def _image_key_error():
    # theta_{0,1} and the swap lose a point each: both are undefined where
    # the image family reads them
    return verify_consequences(_i2_with(theta={"{0>0,1>1}": {0: 0}, "{0>1,1>0}": {1: 0}}))


def _flip_key_error():
    # theta moves a point off every carrier, so theta^-1 is undefined at
    # two points of the fiber carriers
    return verify_consequences(_i2_with(theta={"{0>1}": {0: "z"}, "{0>1,1>0}": {0: 1, 1: "z"}}))


def _missing_omega():
    A = _i2_with(omega={("{0>1,1>0}", "{0>1,1>0}"): {0: 0j, 1: 0}, ("{1>0}", "{0>1}"): {1: 0j}})
    return verify_consequences(A)


def _gauge_key_error():
    A = _i2_with(theta={"{0>0,1>1}": {0: 0}, "{0>1,1>0}": {0: 1}})
    return gauge_transform(A, _gauge(full_monoid_action(2)))


def _gauge_s_undefined():
    A = full_monoid_action(2)
    return gauge_transform(A, _gauge(A, [("{0>1,1>0}", 0), ("{0>0,1>1}", 1)]))


def _gauge_t_undefined():
    # with the swap's map the identity, chi_t is read off the fiber of t
    A = _i2_with(theta={"{0>1,1>0}": {0: 0, 1: 1}})
    return gauge_transform(A, _gauge(A))


def _gauge_st_undefined():
    # omega(swap, e) given on both points for two idempotents e, and the
    # gauge values that only chi_st reads there removed
    both = {0: 0, 1: 0}
    A = _i2_with(omega={("{0>1,1>0}", "{0>0}"): both, ("{0>1,1>0}", "{1>1}"): both})
    zero = 1, np.zeros((A.S.n, A.frame.m), dtype=np.int64)
    return gauge_transform(A, _gauge(A, [("{0>1}", 0), ("{1>0}", 1)], zero))


def _not_an_angle():
    A = _i2_with(omega={("{0>1,1>0}", "{0>1,1>0}"): {0: 0, 1: 0.5j}, ("{0>1}", "{1>0}"): {0: 1j}})
    return gauge_transform(A, _gauge(full_monoid_action(2)))


def _gauge_not_unit():
    A = full_monoid_action(2)
    N, C = random_gauge(A, random.Random(0))
    C = C.copy()
    C[A.frame.idem[1:], 0] = 1
    return gauge_transform(A, (N * 2, C))


def _untwisted(S, carriers, theta):
    """untwisted_action of S with each idempotent the identity on its
    carrier and the other elements acting by theta, keyed by label."""
    maps = {S.index_of(e): {x: x for x in pts} for e, pts in carriers.items()}
    return untwisted_action(S, maps | {S.index_of(s): m for s, m in theta.items()})


def _cocycle_after_missing():
    # maps that do not compose, so the family reads its factors one by
    # one: omega(r, st) is undefined at theta_r(x)
    S = full_monoid_action(2).S
    return verify_twisted_action(_untwisted(S, {"{}": [0, 2], "{0>0}": [1], "{1>1}": [1], "{0>0,1>1}": []},
                                            {"{0>1}": {1: 1}, "{1>0}": {1: 1}, "{0>1,1>0}": {}}))


def _cocycle_left_missing():
    # carriers that are not monotone, U(0) holding every point: omega(r,
    # st) is defined wherever it is needed, omega(r, s) is not
    S = full_monoid_action(2).S
    return verify_twisted_action(_untwisted(S, {"{}": [0, 1, 2], "{0>0}": [], "{1>1}": [], "{0>0,1>1}": [0]},
                                            {"{0>1}": {}, "{1>0}": {}, "{0>1,1>0}": {0: 0}}))


def _cocycle_right_missing():
    # over an associative table omega(rs, t) has the carrier of omega(r,
    # st), so it is missing first only over a table that is not
    # associative: I_2's with swap {1>0} = {1>0}, as InverseSemigroup,
    # which trusts its arguments, takes it
    I2 = full_monoid_action(2).S
    table = [list(row) for row in I2.table]
    table[I2.index_of("{0>1,1>0}")][I2.index_of("{1>0}")] = I2.index_of("{1>0}")
    S = InverseSemigroup(table, I2.inv, I2.idem, I2.labels)
    return verify_twisted_action(_untwisted(S, {"{}": [1], "{0>0}": [0], "{1>1}": [2], "{0>0,1>1}": []},
                                            {"{0>1}": {0: 2}, "{1>0}": {2: 0}, "{0>1,1>0}": {}}))


@pytest.mark.parametrize("case, error, message", [
    (_image_key_error, KeyError, 1),
    (_flip_key_error, KeyError, 1),
    (_missing_omega, ActionError, "omega({1>0},{0>1}) undefined at 0"),
    (_gauge_key_error, KeyError, 1),
    (_gauge_s_undefined, ActionError, "gauge for {0>0,1>1} undefined at 1"),
    (_gauge_t_undefined, ActionError, "gauge for {0>0} undefined at 1"),
    (_gauge_st_undefined, ActionError, "gauge for {0>1} undefined at 0"),
    (_not_an_angle, ActionError, "omega({0>1},{1>0}) is not an angle at 0"),
    (_gauge_not_unit, GaugeNotUnitAtIdempotent, "{0>0}"),
    (_cocycle_after_missing, ActionError, "omega({0>0},{0>1}) undefined at 1"),
    (_cocycle_left_missing, ActionError, "omega({0>0,1>1},{0>0}) undefined at 0"),
    (_cocycle_right_missing, ActionError, "omega({1>0},{1>0}) undefined at 0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_the_first_failure_is_the_former_one(case, error, message):
    with pytest.raises(error) as caught:
        case()
    assert type(caught.value) is error and caught.value.args == (message,)
