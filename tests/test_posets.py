from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.posets import (
    antichain,
    apply_perm,
    automorphisms,
    chain,
    dual_poset,
    ideals,
    is_hierarchical,
    levels,
    udp_check,
    validate_and_close,
)
from paper import closure, extremes, level_sets, sigma


def vee() -> "Poset":
    # two minimal elements below one maximal element
    return validate_and_close(3, [(0, 2), (1, 2)])


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
        assert len(automorphisms(antichain(4))) == 24

    def test_chain_is_rigid(self):
        assert automorphisms(chain(5)) == [(0, 1, 2, 3, 4)]

    def test_vee_swaps_minimals(self):
        auts = automorphisms(vee())
        assert sorted(auts) == [(0, 1, 2), (1, 0, 2)]

    def test_labels_restrict(self):
        auts = automorphisms(antichain(3), labels=[1, 1, 2])
        assert len(auts) == 2

    def test_composition_closure(self):
        p = vee()
        auts = set(automorphisms(p))
        for a in auts:
            for b in auts:
                assert tuple(a[b[i]] for i in range(p.n)) in auts

    def test_cap(self):
        with pytest.raises(BudgetError):
            automorphisms(antichain(13))


class TestUDP:
    def test_chain_constant_weights(self):
        ok, wit = udp_check(chain(4), [Fraction(1)] * 4)
        assert ok and wit is None

    def test_antichain_constant_weights(self):
        # all equal-weight ideals are related by coordinate permutations
        ok, _ = udp_check(antichain(4), [Fraction(1)] * 4)
        assert ok

    def test_violation_reported_with_witness(self):
        # chain with weights 1,1: ideals {0} and ... all prefixes distinct.
        # Use weights (1,2,3) on an antichain: {0,1} vs {2} have equal weight
        # but different sizes, and no automorphism fixes that.
        ok, wit = udp_check(antichain(3), [Fraction(1), Fraction(2), Fraction(3)])
        assert not ok
        i, j = wit
        assert sum([1, 2, 3][v] for v in i) == sum([1, 2, 3][v] for v in j)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(InputError):
            udp_check(chain(2), [Fraction(0), Fraction(1)])


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
