import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.groups import build_group_product
from dualpart.metrics import (
    WeightFunction,
    _over_masks,
    covering_from_members,
    pk_covering,
)
from dualpart.partitions import induce_CO
from dualpart.posets import chain, validate_and_close
from oracles import GroupElement, covering_weight, enumerate_elements, wpm_weight
from paper import is_antichain, is_partition, varpi


def weights(t, config=RunConfig()):
    """The ``induce_CO`` label of every element of (Z/2)^n, in index order:
    bit n - 1 - i of the index is coordinate i."""
    part = induce_CO(build_group_product([[2]] * t.n), t, config)
    return [part.labels[c] for c in part.class_ids.tolist()]


def weight(t, subset):
    """The covering weight of a subset, as ``induce_CO`` labels the element
    of (Z/2)^n with that support."""
    return weights(t)[sum(1 << (t.n - 1 - i) for i in set(subset))]


class TestWeightFunction:
    def test_varpi_additivity(self):
        w = WeightFunction.from_mapping(3, {0: "1/2", 1: 2, 2: 1})
        assert varpi(w, {0, 1}) == Fraction(5, 2)
        assert varpi(w, ()) == 0
        assert not w.is_integer_valued()

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            WeightFunction((Fraction(0), Fraction(1)))


class TestWpmWeight:
    def test_chain_weight_is_prefix_length(self):
        g = build_group_product([[2]] * 4)
        p = chain(4)
        w = WeightFunction.constant(4)
        for el in enumerate_elements(g):
            supp = el.support()
            expect = (max(supp) + 1) if supp else 0
            assert wpm_weight(p, w, el) == expect

    def test_weighted_vee(self):
        g = build_group_product([[2], [2], [2]])
        p = validate_and_close(3, [(0, 2), (1, 2)])
        w = WeightFunction.from_mapping(3, {0: 1, 1: 2, 2: 4})
        el = GroupElement(g, (0, 0, 1))  # support {2}, closure is everything
        assert wpm_weight(p, w, el) == 7


class TestCovering:
    def test_member_validation(self):
        with pytest.raises(InputError):
            covering_from_members(3, [[0], [1]])  # 2 uncovered
        with pytest.raises(InputError):
            covering_from_members(2, [[0, 5], [1]])

    def test_weight_bfs_exact(self):
        t = covering_from_members(5, [[0, 1], [1, 2], [3, 4]])
        assert weight(t, []) == 0
        assert weight(t, [1]) == 1
        assert weight(t, [0, 2]) == 2
        assert weight(t, [0, 2, 4]) == 3

    def test_weight_prefers_large_members(self):
        t = covering_from_members(4, [[0], [1], [2], [3], [0, 1, 2, 3]])
        assert weight(t, [0, 1, 2, 3]) == 1

    def test_antichain_reduce_keeps_weight(self):
        # the weight depends only on the maximal members
        t = covering_from_members(4, [[0, 1], [0], [1], [2, 3], [3]])
        r = covering_from_members(4, [[0, 1], [2, 3]])
        assert not is_antichain(t) and is_antichain(r)
        assert weights(t) == weights(r)
        for size in range(5):
            for sub in itertools.combinations(range(4), size):
                assert covering_weight(t, sub) == covering_weight(r, sub)

    def test_members_must_be_integers(self):
        with pytest.raises(InputError, match="integer coordinates"):
            covering_from_members(3, [[0, 1.0], [2]])
        with pytest.raises(InputError, match="integer coordinates"):
            covering_from_members(2, [[0, True], [1]])

    @pytest.mark.parametrize(
        "members,cells",
        [
            ([[0, 1, 2], [2, 3, 4], [4, 5, 0]], 64 * 3),
            # one block of six twins: 7 states, where 2^6 masks would be 960 cells
            (list(itertools.combinations(range(6), 2)), 7 * 15),
        ],
        ids=["no-twins", "all-pairs"],
    )
    def test_member_table_cap_checked_first(self, members, cells):
        t = covering_from_members(6, members)
        with pytest.raises(
            BudgetError,
            match=rf"^states \* members covering-weight cells = {cells} exceeds pair_work_cap = {cells - 1}$",
        ):
            weights(t, RunConfig(pair_work_cap=cells - 1))
        assert weights(t, RunConfig(pair_work_cap=cells))[-1] == 3

    def test_partition_detection(self):
        assert is_partition(covering_from_members(4, [[0, 1], [2, 3]]))
        assert not is_partition(covering_from_members(4, [[0, 1], [1, 2], [3]]))


class TestPkCovering:
    @pytest.mark.parametrize("n,k", [(5, 1), (5, 2), (5, 5), (7, 3)])
    def test_ceiling_fast_path(self, n, k):
        t = pk_covering(k, n)
        for size in range(n + 1):
            assert weight(t, range(size)) == -(-size // k)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (4, 4)])
    def test_fast_path_agrees_with_materialized_search(self, n, k):
        logical = pk_covering(k, n)
        full = covering_from_members(n, itertools.combinations(range(n), k))
        for size in range(n + 1):
            for sub in itertools.combinations(range(n), size):
                assert weight(logical, sub) == covering_weight(full, sub)
        assert weights(logical) == weights(full)

    def test_logical_covering_refuses_member_search(self):
        with pytest.raises(InputError):
            covering_weight(pk_covering(2, 5), [0, 1])

    def test_partition_only_at_extremes(self):
        assert is_partition(pk_covering(1, 5))
        assert is_partition(pk_covering(5, 5))
        assert not is_partition(pk_covering(2, 5))

    def test_bounds(self):
        with pytest.raises(InputError):
            pk_covering(0, 4)
        with pytest.raises(InputError):
            pk_covering(5, 4)


@given(st.integers(2, 6), st.data())
@settings(max_examples=30, deadline=None)
def test_covering_weight_is_monotone_and_subadditive(n, data):
    members = data.draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1, max_size=n),
            min_size=1,
            max_size=5,
        )
    )
    union = set().union(*members)
    members.append(set(range(n)) - union or {0})
    t = covering_from_members(n, [sorted(m) for m in members])
    a = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    b = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    wa, wb, wab = weight(t, a), weight(t, b), weight(t, a | b)
    assert wab >= max(wa, wb) if a <= (a | b) else True
    assert wab <= wa + wb


def test_over_masks_folds_every_bit():
    n = 7
    assert _over_masks(np.ones(n, dtype=np.int64), np.add).tolist() == [
        bin(u).count("1") for u in range(1 << n)
    ]
    values = np.array([3, 5, 11], dtype=object)
    assert _over_masks(values, np.add).tolist() == [0, 3, 5, 8, 11, 14, 16, 19]
    p = validate_and_close(3, [(0, 2), (1, 2)])
    assert _over_masks(np.array(p.down), np.bitwise_or).tolist() == [0, 1, 2, 3, 7, 7, 7, 7]


@given(st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_induced_weights_equal_the_search(n, data):
    # random members, or all k-subsets of a random set plus a few more:
    # random member lists almost never have twins
    subsets = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    if data.draw(st.booleans()):
        block = sorted(data.draw(subsets))
        k = data.draw(st.integers(1, len(block)))
        members = [set(c) for c in itertools.combinations(block, k)] + data.draw(st.lists(subsets, max_size=3))
    else:
        members = data.draw(st.lists(subsets, min_size=1, max_size=8))
    members.append(set(range(n)) - set().union(*members) or {0})
    t = covering_from_members(n, [sorted(m) for m in members])
    group = build_group_product([[data.draw(st.sampled_from([2, 2, 3]))] for _ in range(n)])
    part = induce_CO(group, t)
    search = {}
    for el in enumerate_elements(group):
        support = frozenset(el.support())
        if support not in search:
            search[support] = covering_weight(t, support)
        assert part.labels[part.class_ids[el.index]] == search[support]
    k = data.draw(st.integers(1, n))
    assert weights(pk_covering(k, n)) == [-(-bin(u).count("1") // k) for u in range(1 << n)]


def test_one_member_sweep_is_not_enough():
    # twin blocks (0, 4), (1,), (2, 3); one sweep of these members in turn
    # over the states weighs {0, 2, 3, 4} and {0, 1, 2, 3, 4} one too high
    t = covering_from_members(5, [[0, 3], [0, 4], [3, 4], [2, 4], [0, 2], [1]])
    assert induce_CO(build_group_product([[2]] * 5), t).blocks == ((0, 4), (1,), (2, 3))
    got = weights(t)
    for u in range(32):
        assert got[u] == covering_weight(t, [i for i in range(5) if u >> (4 - i) & 1])
