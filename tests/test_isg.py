"""Inverse semigroups as Cayley tables."""

import random
import re
from itertools import combinations

import numpy as np
import pytest

from fellsem.isg import (IdempotentsDontCommute, InverseSemigroup, IsgError,
                         IsgHomomorphism, NonAssociative, TooLarge, is_essentially_injective,
                         partial_injections, sub_semigroup, symmetric_inverse_monoid,
                         verify_inverse_semigroup)

from dense import homomorphism_outcome, ref_homomorphism_outcome, ref_sub_semigroup


def ref_symmetric_inverse_monoid(k: int) -> InverseSemigroup:
    """The former builder of I_k, composing the partial injections as dicts."""
    maps = partial_injections(k)
    key = {tuple(sorted(m.items())): i for i, m in enumerate(maps)}

    def compose(f, g):
        # f after g, maximal domain
        return {x: f[y] for x, y in g.items() if y in f}

    n = len(maps)
    table = [[key[tuple(sorted(compose(maps[a], maps[b]).items()))] for b in range(n)]
             for a in range(n)]
    labels = ["{" + ",".join(f"{x}>{y}" for x, y in sorted(m.items())) + "}" for m in maps]
    return verify_inverse_semigroup(table, labels=labels)


def test_z2_group_verifies():
    S = verify_inverse_semigroup([[0, 1], [1, 0]], labels=["1", "g"])
    assert S.n == 2
    assert S.inv[1] == 1
    assert S.idem == [0]
    assert S.leq(0, 0) and not S.leq(1, 0)


def test_left_zero_semigroup_rejected():
    with pytest.raises(IdempotentsDontCommute):
        verify_inverse_semigroup([[0, 0], [1, 1]])


def test_non_associative_table_rejected():
    # a table that is not associative at some triple
    with pytest.raises(NonAssociative):
        verify_inverse_semigroup([[0, 1], [0, 0]])


def test_semilattice_is_inverse():
    S = verify_inverse_semigroup([[0, 1], [1, 1]])
    assert S.idem == [0, 1]
    assert S.leq(1, 0)


def test_symmetric_inverse_monoid_counts():
    # |I_k| = sum_j C(k,j)^2 j!
    assert symmetric_inverse_monoid(1).n == 2
    assert symmetric_inverse_monoid(2).n == 7
    assert symmetric_inverse_monoid(3).n == 34
    assert len(partial_injections(2)) == 7


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_coded_monoid_matches_the_dict_builder(k):
    S, R = symmetric_inverse_monoid(k), ref_symmetric_inverse_monoid(k)
    assert S.table == R.table and S.labels == R.labels
    assert S.inv == R.inv and S.idem == R.idem
    assert all(type(v) is int for row in S.table for v in row)


def test_monoid_size_is_capped():
    with pytest.raises(TooLarge):
        symmetric_inverse_monoid(6)


def test_natural_order_in_i2():
    S = symmetric_inverse_monoid(2)
    maps = partial_injections(2)
    ident = maps.index({0: 0, 1: 1})
    small = maps.index({0: 0})
    assert S.leq(small, ident)
    assert not S.leq(ident, small)


def test_sub_semigroup_closure():
    S = symmetric_inverse_monoid(2)
    maps = partial_injections(2)
    gen = maps.index({0: 1})
    sub, order = sub_semigroup(S, [gen])
    # s, s*, s*s, ss*, 0
    assert sub.n == 5
    assert sorted(sub.idem) == sorted(e for e in sub.elements() if sub.is_idempotent(e))
    assert len(sub.idem) == 3


def test_homomorphism_validation():
    S = verify_inverse_semigroup([[0, 1], [1, 0]], labels=["1", "g"])
    T = verify_inverse_semigroup([[0]])
    phi = IsgHomomorphism(S, T, [0, 0])
    assert phi.is_surjective
    assert not is_essentially_injective(phi)  # collapses g to the unit
    with pytest.raises(IsgError):
        IsgHomomorphism(T, S, [1])  # unit must go to an idempotent


@pytest.mark.parametrize("labels, message", [
    (["1", "1"], "label '1' repeats"),
    (["1"], "1 labels for 2 elements"),
    (["1", "g", "h"], "3 labels for 2 elements"),
])
def test_labels_are_one_distinct_label_per_element(labels, message):
    with pytest.raises(IsgError, match=re.escape(message)):
        verify_inverse_semigroup([[0, 1], [1, 0]], labels=labels)


def test_essential_injectivity_of_identity():
    S = symmetric_inverse_monoid(2)
    phi = IsgHomomorphism(S, S, list(S.elements()))
    assert is_essentially_injective(phi)


def test_json_round_trip():
    S = symmetric_inverse_monoid(2)
    S2 = InverseSemigroup.from_json(S.to_json())
    assert S2.table == S.table and S2.labels == S.labels


def _generated(k):
    """I_k, and the generators of every subsemigroup of it generated by one
    or two elements, the identity adjoined."""
    S, ident = symmetric_inverse_monoid(k), partial_injections(k).index({i: i for i in range(k)})
    for gens in [*combinations(S.elements(), 1), *combinations(S.elements(), 2)]:
        yield S, sorted(set(gens) | {ident})


def _assert_same_subsemigroup(got, ref):
    """sub_semigroup's result against ref_sub_semigroup's: every list, with
    Python ints, and the three arrays."""
    (sub, order), (ref, ref_order) = got, ref
    assert (sub.table, sub.labels, order) == (ref.table, ref.labels, ref_order)
    assert (sub.inv, sub.idem) == (ref.inv, ref.idem)
    lists = [order, sub.inv, sub.idem, *sub.table]
    assert all(type(v) is int for values in lists for v in values)
    for name in ("cayley", "order", "generators"):
        mine, theirs = getattr(sub, name), getattr(ref, name)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), name


def test_subsemigroups_match_the_reference():
    count = 0
    for k in (2, 3):
        for S, gens in _generated(k):
            _assert_same_subsemigroup(sub_semigroup(S, gens), ref_sub_semigroup(S, gens))
            count += 1
    assert count == 623


def test_subsemigroups_of_i4_match_the_reference():
    """A seeded sample of one- and two-generator subsemigroups of I_4, the
    identity not adjoined."""
    S, rng = symmetric_inverse_monoid(4), random.Random(4)
    samples = [rng.sample(range(S.n), rng.randrange(1, 3)) for _ in range(40)]
    sizes = set()
    for gens in samples:
        got = sub_semigroup(S, gens)
        _assert_same_subsemigroup(got, ref_sub_semigroup(S, gens))
        sizes.add(got[0].n)
    assert min(sizes) <= 2 and max(sizes) >= 90


@pytest.fixture(scope="module")
def census():
    """The number of distinct element sets sub_semigroup returns from one or
    two generators of I_k, by (k, whether the identity is adjoined)."""
    counts = {}
    for k in (2, 3):
        S, ident = symmetric_inverse_monoid(k), partial_injections(k).index({i: i for i in range(k)})
        pairs = [*combinations(S.elements(), 1), *combinations(S.elements(), 2)]
        for adjoined in (False, True):
            extra = {ident} if adjoined else set()
            counts[k, adjoined] = len({tuple(sub_semigroup(S, sorted(set(g) | extra))[1])
                                       for g in pairs})
    return counts


def test_subsemigroup_census(census):
    assert census == {(2, False): 15, (3, False): 155, (2, True): 11, (3, True): 136}


@pytest.mark.parametrize("bad", [[-1], [7], [True], [np.True_], [1.5], ["0"], [None], [0, -1]])
def test_sub_semigroup_rejects_what_is_not_an_element(bad):
    S = symmetric_inverse_monoid(2)
    with pytest.raises(IsgError, match=re.escape(f"generator {bad[-1]!r} is not an element index in 0..6")):
        sub_semigroup(S, bad)


def test_sub_semigroup_of_no_generators_is_empty():
    sub, order = sub_semigroup(symmetric_inverse_monoid(2), [])
    assert (sub.n, sub.table, sub.inv, sub.idem, order) == (0, [], [], [], [])


def test_natural_order_is_the_formula():
    S = symmetric_inverse_monoid(3)
    for a in S.elements():
        for b in S.elements():
            assert S.leq(a, b) is (a == S.table[S.table[b][S.inv[a]]][a]), (a, b)


def test_homomorphisms_match_the_reference_on_seeded_maps():
    """Inclusions of subsemigroups (homomorphisms), the same with one entry
    moved, identities, constants and uniform random maps."""
    rng = random.Random(11)
    I2 = symmetric_inverse_monoid(2)
    subs = [(S, *sub_semigroup(S, gens)) for k in (2, 3) for S, gens in _generated(k)]
    cases = []
    for S, sub, order in rng.sample(subs, 60):
        moved = list(order)
        moved[rng.randrange(len(moved))] = rng.randrange(S.n)
        cases += [(sub, S, order), (sub, S, moved), (sub, sub, list(sub.elements())),
                  (sub, S, [rng.choice(S.idem)] * sub.n),
                  (sub, I2, [rng.randrange(I2.n) for _ in sub.elements()])]
    outcomes = [(homomorphism_outcome(*c), ref_homomorphism_outcome(*c)) for c in cases]
    assert [o for o, r in outcomes] == [r for o, r in outcomes]
    kinds = {(error is None, injective) for (error, injective), _ in outcomes}
    assert kinds == {(True, True), (True, False), (False, None)}
