"""Constructions of known-valid twisted actions, cocycles and bundles,
plus the mutation helpers used by the metamorphic tests.

Valid actions come from three provably sound families: untwisted actions
of partial-injection semigroups, actions induced by groupoid cocycles,
and gauge transforms of either.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from fellsem.angles import turn
from fellsem.isg import InverseSemigroup, sub_semigroup, symmetric_inverse_monoid, verify_inverse_semigroup
from fellsem.action import OUTSIDE, Frame, TwistedAction, gauge_transform, mod, widen
from fellsem.groupoid import (TwoCocycle, action_from_cocycle, bisection_semigroup,
                              cyclic_group, pair_groupoid, transitive_z2_groupoid,
                              z2_nontrivial_cocycle)


def untwisted_action(S: InverseSemigroup, maps) -> TwistedAction:
    """The untwisted action of a semigroup of partial injections.

    maps[s] is the partial injection realizing element s; the point set is
    the union of the idempotent domains.  omega is exponent zero (the value
    one) on every carrier.
    """
    U = {s: frozenset(maps[s].values()) for s in S.elements()}
    X = sorted(set().union(*(U[e] for e in S.idem)) | set().union(*(U[s] for s in S.elements())))
    F = Frame(S, X, U, maps)
    return TwistedAction.from_exponents(F, 1, np.where(F.fib_of_product, 0, OUTSIDE))


def full_monoid_action(k: int) -> TwistedAction:
    """All partial injections on k points acting tautologically."""
    from fellsem.isg import partial_injections
    S = symmetric_inverse_monoid(k)
    maps = partial_injections(k)
    return untwisted_action(S, maps)


def sub_monoid_action(k: int, generator_indices) -> tuple[TwistedAction, InverseSemigroup]:
    """Untwisted action of the subsemigroup of I_k generated by the given
    element indices (the identity is always adjoined so the idempotent
    carriers cover the point set)."""
    from fellsem.isg import partial_injections
    Sfull = symmetric_inverse_monoid(k)
    maps = partial_injections(k)
    ident = maps.index({i: i for i in range(k)})
    S, order = sub_semigroup(Sfull, sorted(set(generator_indices) | {ident}))
    return untwisted_action(S, [maps[a] for a in order]), S


def five_element_semigroup() -> tuple[InverseSemigroup, list[dict]]:
    """S = {s, s*, s*s, ss*, 0} with s^2 = 0, realized inside I_2 by the
    partial map 0 -> 1."""
    from fellsem.isg import partial_injections
    Sfull = symmetric_inverse_monoid(2)
    maps = partial_injections(2)
    gen = maps.index({0: 1})
    S, order = sub_semigroup(Sfull, [gen])
    return S, [maps[a] for a in order]


def five_element_action() -> TwistedAction:
    S, maps = five_element_semigroup()
    return untwisted_action(S, maps)


def busby_smith_z2() -> TwistedAction:
    """The order-two group acting trivially on one point, twisted by -1."""
    S = verify_inverse_semigroup([[0, 1], [1, 0]], labels=["1", "g"])
    X = [0]
    U = {0: frozenset(X), 1: frozenset(X)}
    theta = {0: {0: 0}, 1: {0: 0}}
    W = np.array([[[0], [0]], [[0], [1]]])  # omega(g, g) = -1: exponent 1 mod 2
    return TwistedAction.from_exponents(Frame(S, X, U, theta), 2, W)


def cocycle_action(G, tau: TwoCocycle):
    """Action of the full bisection semigroup twisted by tau."""
    S, biss, wide = bisection_semigroup(G)
    return action_from_cocycle(G, tau, S, biss, wide), (S, biss)


# standard groupoid examples with their full bisection semigroups
def standard_groupoids():
    return {
        "z2": cyclic_group(2),
        "z3": cyclic_group(3),
        "pair2": pair_groupoid([0, 1]),
        "pair3": pair_groupoid([0, 1, 2]),
        "trans_z2": transitive_z2_groupoid(),
    }


def random_gauge(A: TwistedAction, rng) -> tuple:
    """A random rational-angle gauge (N, C), trivial on idempotents, drawn
    over each fiber carrier in the frame's point order."""
    F, N, vals = A.frame, 12, []  # 12: the lcm of the denominators
    for s, count in enumerate(F.fib.sum(axis=1).tolist()):
        if A.S.is_idempotent(s):
            vals += [0] * count
        else:
            denom = rng.choice([2, 3, 4, 6])
            vals += [rng.randrange(denom) * (N // denom) for _ in range(count)]
    C = np.full((F.n, F.m), OUTSIDE, dtype=np.int64)
    C[F.fib] = vals
    return N, C


def random_coboundary(G, rng) -> TwoCocycle:
    """The coboundary of random quarter turns on G's non-unit arrows."""
    c = {a: Fraction(rng.randrange(4), 4) for a in G.arrows() if not G.is_unit(a)}
    return TwoCocycle.coboundary(G, c)


def random_valid_action(rng, max_size: int = 10) -> TwistedAction:
    """One action from the three provably valid families.

    Semigroups are kept at or below max_size elements so corpus-wide axiom
    sweeps stay fast.
    """
    kind = rng.randrange(3)
    if kind == 0:
        k = rng.choice([2, 2, 3])
        n = len(symmetric_inverse_monoid(k).table)
        for _ in range(8):
            gens = [rng.randrange(n) for _ in range(rng.randrange(1, 3))]
            A, S = sub_monoid_action(k, gens)
            if S.n <= max_size:
                return A
        return full_monoid_action(2)
    if kind == 1:
        G = rng.choice([cyclic_group(2), cyclic_group(3), pair_groupoid([0, 1])])
        tau = TwoCocycle.trivial(G) if rng.random() < 0.5 else random_coboundary(G, rng)
        A, _ = cocycle_action(G, tau)
        return A
    base = random_valid_action(rng, max_size)
    return gauge_transform(base, random_gauge(base, rng))


def mutate_omega(A: TwistedAction, rng) -> TwistedAction | None:
    """Multiply one omega value at one point by a nontrivial angle.

    Returns None when the action has no nonempty omega carrier to mutate.
    The slots are listed key by key, (s, t) in order, and within the
    carrier of omega(s, t) in the frame's point order, so the draws do
    not depend on the hash seed.
    """
    F, inside = A.frame, A.W != OUTSIDE
    ends = np.cumsum(inside.sum(axis=2).ravel())
    if not ends.size or not ends[-1]:
        return None
    r = rng.randrange(int(ends[-1]))
    key = int(np.searchsorted(ends, r, side="right"))
    s, t = divmod(key, F.n)
    r -= int(ends[key - 1]) if key else 0
    i = np.flatnonzero(inside[s, t])[r]
    denom = rng.choice([2, 3, 4])
    shift = rng.randrange(1, denom)
    N, V = lcm(A.N, denom), A.V
    W = widen(A.W, A.N, N).copy()  # widen may return A's read-only W
    if W[s, t, i] >= 0:
        W[s, t, i] = mod(W[s, t, i] + shift * (N // denom), N)
    else:
        V = V.copy()
        V[s, t, i] *= turn(shift, denom)
    return TwistedAction.from_exponents(F, N, W, V)


def mutation_corpus(rng) -> list:
    """Base actions for the single-point omega mutation sweep.

    Some actions have free omega slots: for the order-two group acting on a
    point, omega(g, g) is an unconstrained cocycle parameter, so corrupting
    it yields another valid action and no checker can flag it.  The sweep
    therefore runs over actions whose slots are all constraint-bound: the
    full partial-injection monoid on two points, the five-element semigroup,
    cocycle actions of the order-three group and the two-point pair
    groupoid, and random gauge transforms of each (gauging conjugates the
    constraint set, so it preserves bound slots).
    """
    bases = [full_monoid_action(2), five_element_action()]
    for G in [cyclic_group(3), pair_groupoid([0, 1])]:
        bases.append(cocycle_action(G, TwoCocycle.trivial(G))[0])
        bases.append(cocycle_action(G, random_coboundary(G, rng))[0])
    return bases + [gauge_transform(b, random_gauge(b, rng)) for b in bases]


def corpus(rng, count: int):
    """A reproducible corpus of valid actions for the acceptance sweeps."""
    out = [full_monoid_action(2), five_element_action(), busby_smith_z2()]
    G, tau = z2_nontrivial_cocycle()
    out.append(cocycle_action(G, tau)[0])
    while len(out) < count:
        out.append(random_valid_action(rng))
    return out[:count]
