"""Light's associativity test against the full scan.

Each check scans only generator middle factors once its full scan is more
than one block, so these tests set ASSOC_BLOCK and CHUNK to 1, which puts
every input where it applies on the restricted path, and compare verdicts
and violation lists with the default path, which scans small inputs whole.
"""

import random

import numpy as np
import pytest

from fellsem import action, bundle, isg
from fellsem.action import gauge_transform, verify_twisted_action
from fellsem.bundle import Bundle, build_bundle
from fellsem.generators import corpus, full_monoid_action, mutate_omega, mutation_corpus, random_gauge
from fellsem.isg import IsgError, symmetric_inverse_monoid, verify_inverse_semigroup

from dense import origin
from test_bundle import _corrupt_one_entry


@pytest.fixture
def restricted(monkeypatch):
    """Call to put every later scan on the restricted path."""
    def patch():
        monkeypatch.setattr(isg, "ASSOC_BLOCK", 1)
        monkeypatch.setattr(action, "CHUNK", 1)
        monkeypatch.setattr(bundle, "CHUNK", 1)
    return patch


def _isg_outcome(table):
    try:
        S = verify_inverse_semigroup(table)
    except IsgError as exc:
        return type(exc), str(exc)
    return S.inv, S.idem


def _copy(B) -> Bundle:
    """B with no lookup built yet."""
    return Bundle(B.S, B.points, B.N, B.products, B.stars, B.inclusions, B.realization, **origin(B))


def test_every_entry_of_i3_moved_gives_the_same_outcome(restricted):
    table = symmetric_inverse_monoid(3).table
    n = len(table)
    cases = []
    for a in range(n):
        for b in range(n):
            bad = [list(row) for row in table]
            bad[a][b] = (bad[a][b] + 1) % n
            cases.append(bad)
    full = [_isg_outcome(t) for t in cases]
    restricted()
    assert [_isg_outcome(t) for t in cases] == full
    assert sum(o[0] is isg.NonAssociative for o in full) > 0.9 * len(cases)


def test_corpus_verdicts_match(restricted):
    actions = corpus(random.Random(0), 200)
    full = [(verify_twisted_action(A), build_bundle(A).verify()) for A in actions]
    restricted()
    light, shorter = [], 0
    for A in actions:
        B = build_bundle(A)
        light.append((verify_twisted_action(A), B.verify()))
        shorter += len(B.lookup().middle) < B.M
    assert light == full
    assert shorter >= 150  # the restricted scan ran with fewer middle factors


def test_mutation_sweep_verdicts_match(restricted):
    rng = random.Random(2)
    bases = mutation_corpus(rng)
    mutants = [mutate_omega(bases[i % len(bases)], rng) for i in range(1000)]
    full = [verify_twisted_action(M) for M in mutants]
    restricted()
    assert [verify_twisted_action(M) for M in mutants] == full
    assert not any(ok for ok, _ in full)


def test_table_corruptions_give_the_same_violations(restricted):
    bundles = [build_bundle(A) for A in mutation_corpus(random.Random(2))]
    rng = random.Random(5)
    cases = [_corrupt_one_entry(bundles[i % len(bundles)], rng) for i in range(500)]
    full = [B.verify() for B in cases]
    restricted()
    copies = [_copy(B) for B in cases]
    assert [B.verify() for B in copies] == full
    assert sum(any(tag == "associativity" for tag, _ in bad) for _, bad in full) > 100
    assert all(len(B.lookup().middle) < B.M for B in copies)


def test_gauged_i4_clean_and_with_one_product_exponent_changed():
    A = full_monoid_action(4)
    B = build_bundle(gauge_transform(A, random_gauge(A, random.Random(1))))
    L = B.lookup()
    assert len(L.middle) < B.M // 10
    assert L.nonassociative(0, L.middle).size == 0
    assert B.verify() == (True, [])

    # one product exponent changed; each product row's exponent is one
    # live omega exponent of the action
    pair, x, y, z, K, V = B.products
    K = K.copy()
    K[len(K) // 2] = (K[len(K) // 2] + 1) % B.N
    C = Bundle(B.S, B.points, B.N, (pair, x, y, z, K, V), B.stars, B.inclusions, B.realization)
    L = C.lookup()
    assert len(L.middle) < C.M // 10
    assert L.nonassociative(0, L.middle).size > 0


def test_i5_verifies_and_its_generators_generate_it():
    S = symmetric_inverse_monoid(5)  # through verify_inverse_semigroup
    assert S.n == 1546 and len(S.idem) == 2 ** 5
    T, gens = S.cayley, S.generators
    assert len(gens) < 10
    reached = np.zeros(S.n, dtype=bool)
    reached[gens] = True
    while True:  # products of generators, bracketed to the left
        grown = reached.copy()
        grown[T[np.ix_(np.flatnonzero(reached), gens)]] = True
        if (grown == reached).all():
            break
        reached = grown
    assert reached.all()
