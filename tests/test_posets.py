import math
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import example, given, settings, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.posets import (
    antichain,
    automorphism_group,
    chain,
    dual_poset,
    ideal_masks,
    is_hierarchical,
    levels,
    udp_check,
    validate_and_close,
)
from oracles import apply_perm, automorphisms, ideal_masks_by_scan, ideals, udp_by_listing
from paper import closure, extremes, level_sets, sigma


def vee() -> "Poset":
    # two minimal elements below one maximal element
    return validate_and_close(3, [(0, 2), (1, 2)])


def udp(p, omega):
    """``udp_check`` with the generators of Aut(P, omega) that it takes."""
    return udp_check(p, omega, automorphism_group(p, omega)[1])


class TestConstruction:
    def test_transitive_closure(self):
        p = validate_and_close(3, [(0, 1), (1, 2)])
        assert p.leq(0, 2)

    def test_cycle_rejected(self):
        with pytest.raises(InputError):
            validate_and_close(2, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            validate_and_close(2, [(0, 5)])

    def test_antichain_has_no_relations(self):
        p = antichain(4)
        assert not any(p.leq(u, v) for u in range(4) for v in range(4) if u != v)


class TestIdealsAndClosure:
    def test_chain_ideals_are_prefixes(self):
        p = chain(4)
        got = {frozenset(i) for i in ideals(p)}
        assert got == {frozenset(range(j)) for j in range(5)}

    def test_antichain_ideals_are_all_subsets(self):
        assert len(ideals(antichain(4))) == 16

    def test_vee_ideals(self):
        got = {frozenset(i) for i in ideals(vee())}
        assert got == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        }

    def test_closure_is_idempotent_and_monotone(self):
        p = vee()
        c = closure(p, {2})
        assert c == {0, 1, 2}
        assert closure(p, c) == c

    def test_ideal_cap(self):
        with pytest.raises(BudgetError):
            ideals(antichain(25), RunConfig(ideal_cap_n=20))

    def test_ideal_masks_at_the_cap(self):
        # n = ideal_cap_n: every mask of the antichain, the prefixes of the chain
        assert np.array_equal(ideal_masks(antichain(20)), np.arange(1 << 20))
        assert ideal_masks(chain(20)).tolist() == [(1 << j) - 1 for j in range(21)]


class TestStructure:
    def test_extremes(self):
        p = vee()
        assert extremes(p, {0, 1, 2}, "max") == {2}
        assert extremes(p, {0, 1, 2}, "min") == {0, 1}

    def test_levels_chain(self):
        p = chain(3)
        assert levels(p) == (1, 2, 3)
        assert level_sets(p) == [frozenset({0}), frozenset({1}), frozenset({2})]
        assert sigma(p, {2}) == 3
        assert sigma(p, {0, 2}) == 1
        assert sigma(p, frozenset()) == 3  # maximality convention for the empty set

    @pytest.mark.parametrize(
        "build,expect",
        [
            (lambda: chain(4), True),
            (lambda: antichain(4), True),
            (lambda: vee(), True),  # complete bipartite between levels
            (lambda: validate_and_close(3, [(0, 1)]), False),
        ],
    )
    def test_hierarchical(self, build, expect):
        assert is_hierarchical(build()) is expect

    def test_dual_poset_involution(self):
        p = validate_and_close(4, [(0, 1), (0, 2), (2, 3)])
        assert dual_poset(dual_poset(p)) == p
        assert dual_poset(p).leq(1, 0)


class TestAutomorphisms:
    def test_antichain_full_symmetric_group(self):
        # up to n = aut_cap_n, where 12! = 479001600 maps are never listed
        for n in range(1, 13):
            assert automorphism_group(antichain(n))[0] == math.factorial(n)

    def test_chain_is_rigid(self):
        for n in range(1, 13):
            assert automorphism_group(chain(n)) == (1, [])

    def test_vee_swaps_minimals(self):
        assert automorphism_group(vee()) == (2, [(1, 0, 2)])

    def test_labels_restrict(self):
        assert automorphism_group(antichain(3), labels=[1, 1, 2])[0] == 2

    def test_generators_make_a_group_of_the_counted_order(self):
        # the order is counted, not listed: the closure of the generators
        # under composition must have exactly that many elements
        p = validate_and_close(6, [(0, 2), (1, 2), (3, 5), (4, 5)])
        order, gens = automorphism_group(p)
        group = {tuple(range(p.n))}
        frontier = list(group)
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = tuple(g[a[i]] for i in range(p.n))
                if b not in group:
                    group.add(b)
                    frontier.append(b)
        assert order == len(group) == 8
        assert group == set(automorphisms(p))

    def test_composition_closure(self):
        p = vee()
        auts = set(automorphisms(p))
        for a in auts:
            for b in auts:
                assert tuple(a[b[i]] for i in range(p.n)) in auts

    def test_cap(self):
        with pytest.raises(BudgetError, match="automorphism-group search = 13 exceeds aut_cap_n = 12"):
            automorphism_group(antichain(13))


class TestUDP:
    def test_chain_constant_weights(self):
        ok, wit = udp(chain(4), [Fraction(1)] * 4)
        assert ok and wit is None

    def test_antichain_constant_weights(self):
        # all equal-weight ideals are related by coordinate permutations
        ok, _ = udp(antichain(4), [Fraction(1)] * 4)
        assert ok

    def test_violation_reported_with_witness(self):
        # chain with weights 1,1: ideals {0} and ... all prefixes distinct.
        # Use weights (1,2,3) on an antichain: {0,1} vs {2} have equal weight
        # but different sizes, and no automorphism fixes that.
        ok, wit = udp(antichain(3), [Fraction(1), Fraction(2), Fraction(3)])
        assert not ok
        i, j = wit
        assert sum([1, 2, 3][v] for v in i) == sum([1, 2, 3][v] for v in j)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InputError):
            udp_check(chain(2), [Fraction(0), Fraction(1)], [])


@given(st.integers(2, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_random_relations_close_to_valid_poset_or_cycle(n, data):
    rels = data.draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=6,
        )
    )
    try:
        p = validate_and_close(n, rels)
    except InputError:
        return
    # transitivity and antisymmetry hold after closure
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if p.leq(a, b) and p.leq(b, c):
                    assert p.leq(a, c)
            if a != b:
                assert not (p.leq(a, b) and p.leq(b, a))


def test_apply_perm():
    assert apply_perm((2, 0, 1), {0, 2}) == {2, 1}


@st.composite
def weighted_posets(draw):
    """A random poset on at most 7 elements, with weights and labels drawn
    from small sets so that ties, and so symmetries, are common."""
    n = draw(st.integers(1, 7))
    # pairs u < v close to a poset without cycles; the relabelling puts
    # relations against the index order too
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda r: r[0] < r[1])
    name = draw(st.permutations(range(n)))
    p = validate_and_close(n, [(name[u], name[v]) for u, v in draw(st.lists(pair, max_size=8))])
    weight = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)])
    omega = draw(st.lists(weight, min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return p, omega, labels


@given(weighted_posets())
# two chains 2 < 0 and 4 < 1 against the index order: a search that
# checked only the relations below each placed element counts 8 here
@example((validate_and_close(6, [(2, 0), (4, 1)]), [Fraction(1)] * 6, None))
@settings(max_examples=300, deadline=None)
def test_stabilizer_chain_matches_listing(case):
    p, omega, labels = case
    assert automorphism_group(p, labels)[0] == len(automorphisms(p, labels))
    assert automorphism_group(p, omega)[0] == len(automorphisms(p, omega))
    assert udp(p, omega) == udp_by_listing(p, omega)


@given(st.integers(1, 10), st.data())
@settings(max_examples=200, deadline=None)
def test_ideal_masks_match_scan(n, data):
    # pairs u < v close to a poset without cycles; the relabelling puts
    # relations against the index order too
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda r: r[0] < r[1])
    name = data.draw(st.permutations(range(n)))
    p = validate_and_close(n, [(name[u], name[v]) for u, v in data.draw(st.lists(pair, max_size=15))])
    assert ideal_masks(p).tolist() == ideal_masks_by_scan(p)
