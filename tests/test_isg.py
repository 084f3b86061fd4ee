"""Inverse semigroups as Cayley tables."""

import pytest

from fellsem.isg import (IdempotentsDontCommute, InverseSemigroup, IsgError,
                         IsgHomomorphism, NonAssociative, TooLarge, is_essentially_injective,
                         partial_injections, sub_semigroup, symmetric_inverse_monoid,
                         verify_inverse_semigroup)


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


def test_essential_injectivity_of_identity():
    S = symmetric_inverse_monoid(2)
    phi = IsgHomomorphism(S, S, list(S.elements()))
    assert is_essentially_injective(phi)


def test_json_round_trip():
    S = symmetric_inverse_monoid(2)
    S2 = InverseSemigroup.from_json(S.to_json())
    assert S2.table == S.table and S2.labels == S.labels
