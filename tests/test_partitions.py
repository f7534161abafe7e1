import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualpart.config import BudgetError, InputError, RunConfig
from dualpart.exactarith import CycInt, _is_prime, euler_phi_degree
from dualpart.groups import build_group_product
from dualpart.krawtchouk import ku_value_table
from dualpart.metrics import WeightFunction, covering_from_members, pk_covering
from dualpart.partitions import (
    DualityContext,
    Partition,
    SignatureLabels,
    _rank_rows,
    co_dual_class_count,
    co_profile_prefix_sums,
    co_reflexivity_bruteforce,
    induce_CO,
    induce_Q,
    induce_from_ideal_classes,
    krawtchouk_matrix,
    macwilliams_identity_holds,
    reflexivity_check,
    theorem32_check,
)
from dualpart.posets import (
    antichain,
    automorphism_group,
    chain,
    dual_poset,
    udp_check,
    validate_and_close,
)
from oracles import (
    annihilator,
    as_int,
    co_support_signatures,
    covering_weight,
    eager_dual,
    element_from_index,
    enumerate_elements,
    export_by_class,
    f_poly_bruteforce,
    f_poly_hierarchical,
    from_int,
    hamming_sum_profile,
    hamming_sum_profiles,
    identity_by_cycint,
    ideals,
    lattice_dual,
    members,
    onehot_coords,
    pairing_exponent,
    reduction_rows,
    root_of_unity_sum,
    scaled_exponents,
    wpm_weight,
)
from paper import (
    F_poly,
    SparsePoly,
    closure,
    f_poly_degree_ideal,
    ku_eval,
    phi_value,
    prop33_predicate,
    psi_value,
    theorem41_check,
)


def vee():
    return validate_and_close(3, [(0, 2), (1, 2)])


class TestPartition:
    def test_from_keys_sorted_labels(self):
        p = Partition.from_keys([3, 1, 3, 2])
        assert p.labels == [1, 2, 3]
        assert list(p.class_ids) == [2, 0, 2, 1]

    def test_finer(self):
        fine = Partition.from_keys([0, 1, 2, 3])
        coarse = Partition.from_keys([0, 0, 1, 1])
        assert fine.is_finer(coarse)
        assert not coarse.is_finer(fine)
        assert coarse.finer_violation(fine) is not None

    def test_equality_ignores_label_order(self):
        a = Partition.from_keys(["x", "y", "x"])
        b = Partition.from_keys([5, 1, 5])
        assert a == b

    def test_export_roundtrip_shape(self):
        p = Partition.from_keys([1, 0, 1])
        doc = p.export()
        assert doc["classes"] == [[1], [0, 2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_export_matches_per_class_oracle(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 300))
        k = int(rng.integers(1, size + 1))
        ids = np.concatenate([np.arange(k), rng.integers(0, k, size - k)])
        rng.shuffle(ids)
        for part in (Partition(ids), Partition(np.zeros(size, dtype=np.int64)), Partition(np.arange(size))):
            doc = part.export()
            assert doc["num_classes"] == part.num_classes
            assert doc["classes"] == export_by_class(part)

    def test_export_of_duals_matches_per_class_oracle(self):
        group = build_group_product([[3]] * 4)
        ctx = DualityContext(group)
        lattice = ctx.left_dual(induce_CO(group, pk_covering(2, 4)))
        pairwise = ctx.left_dual(Partition(np.arange(81) % 7, host=group))
        for dual in (lattice, pairwise):
            doc = dual.export()
            assert doc["classes"] == export_by_class(dual)
            assert doc["labels"] == [str(label) for label in dual.labels]

    def test_export_of_no_classes(self):
        assert Partition([]).export() == {"num_classes": 0, "classes": [], "labels": None}


def signature(ctx, idx, gamma):
    """The per-class character sums of element idx, from its pairing row."""
    row = ctx._coords(ctx.exponents[idx : idx + 1], gamma)
    return SignatureLabels(ctx.m, row, gamma.num_classes)[0]


def brute_force_left_dual(group, gamma):
    """Independent per-element reference: group elements by the tuple of
    exact per-class character sums computed one pairing at a time."""
    m = group.exponent
    els = enumerate_elements(group)
    keys = []
    for a in els:
        sums = []
        for c in range(gamma.num_classes):
            exps = [pairing_exponent(a, els[int(i)]) for i in members(gamma, c)]
            sums.append(root_of_unity_sum(m, exps))
        keys.append(tuple(sums))
    return Partition.from_keys(keys)


class TestDualityContext:
    @pytest.mark.parametrize(
        "spec",
        [[[2], [2], [2]], [[3], [3]], [[2], [2, 3]], [[4], [2]], [[5], [2]]],
    )
    def test_left_dual_matches_elementwise_reference(self, spec):
        group = build_group_product(spec)
        rng = random.Random(hash(str(spec)) & 0xFFFF)
        keys = [rng.randrange(3) for _ in range(group.order)]
        gamma = Partition.from_keys(keys, host=group)
        ctx = DualityContext(group)
        fast = ctx.left_dual(gamma)
        slow = brute_force_left_dual(group, gamma)
        assert fast == slow

    def test_binary_fast_path_agrees_with_signatures(self):
        group = build_group_product([[2]] * 5)
        gamma = induce_CO(group, pk_covering(2, 5))
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        assert lam == brute_force_left_dual(group, gamma)

    def test_identity_class_carries_class_sizes(self):
        group = build_group_product([[2], [3]])
        gamma = induce_CO(group, pk_covering(1, 2))
        ctx = DualityContext(group)
        sig = signature(ctx, 0, gamma)
        sizes = gamma.class_sizes()
        assert [as_int(v) for v in sig] == list(sizes)

    def test_annihilator_is_character_kernel(self):
        group = build_group_product([[2]] * 4)
        code = [0, 3, 12, 15]  # indices of an additive code
        ann = set(int(x) for x in annihilator(group, code))
        for b_idx in range(group.order):
            b = element_from_index(group, b_idx)
            trivial = all(
                pairing_exponent(element_from_index(group, a), b) == 0 for a in code
            )
            assert (b_idx in ann) == trivial

    def test_annihilator_rejects_out_of_range_indices(self):
        group = build_group_product([[2]] * 3)
        ctx = DualityContext(group)
        gamma = induce_CO(group, pk_covering(1, 3))
        lam = ctx.left_dual(gamma)
        # both ends of the range are codewords of the repetition code
        code, dual = [0, 7], [0, 3, 5, 6]
        assert annihilator(group, code).tolist() == dual
        for bad in ([-1], [8], [0, -1], [0, 8]):
            with pytest.raises(InputError, match=r"code index out of range \[0, 8\)$"):
                macwilliams_identity_holds(ctx, bad, dual, lam, gamma)
            with pytest.raises(InputError, match=r"code index out of range \[0, 8\)$"):
                macwilliams_identity_holds(ctx, code, bad, lam, gamma)
        assert macwilliams_identity_holds(ctx, code, dual, lam, gamma)
        assert ctx._table is None

    def test_reflexivity_check_bidual(self):
        group = build_group_product([[2]] * 4)
        gamma = induce_CO(group, pk_covering(1, 4))
        ctx = DualityContext(group)
        rep = reflexivity_check(ctx, gamma, compute_bidual=True)
        assert rep["reflexive"] and rep["bidual_equals_gamma"]


class TestInducedPartitions:
    def test_induce_q_matches_elementwise(self):
        group = build_group_product([[2], [3], [2]])
        p = vee()
        for weights in [
            {0: 1, 1: "3/2", 2: 2},
            # scaled totals 2^62 - 1 (int64) and 2^62 on: Python-int sums
            {0: 2**60, 1: 2**60, 2: 2**61 - 1},
            {0: 2**60, 1: 2**60, 2: 2**61},
            {0: "1e400", 1: "1/3", 2: "2/7"},
            {0: "1e-30", 1: "1/3", 2: "2/7"},
        ]:
            omega = WeightFunction.from_mapping(3, weights)
            part = induce_Q(group, p, omega)
            keys = [wpm_weight(p, omega, el) for el in enumerate_elements(group)]
            for el, w in zip(enumerate_elements(group), keys):
                assert part.labels[part.class_ids[el.index]] == w
            want = Partition.from_keys(keys)
            assert np.array_equal(part.class_ids, want.class_ids) and part.labels == want.labels

    def test_induce_co_matches_elementwise(self):
        group = build_group_product([[2], [2], [3]])
        t = covering_from_members(3, [[0, 1], [1, 2]])
        part = induce_CO(group, t)
        for el in enumerate_elements(group):
            assert part.labels[part.class_ids[el.index]] == covering_weight(t, el.support())

    def test_induce_from_ideal_classes(self):
        group = build_group_product([[2]] * 3)
        p = chain(3)
        labels = {i: len(i) % 2 for i in ideals(p)}
        part = induce_from_ideal_classes(group, p, labels)
        for el in enumerate_elements(group):
            cl = closure(p, el.support())
            assert part.labels[part.class_ids[el.index]] == len(cl) % 2

    def test_ideal_labels_must_cover(self):
        group = build_group_product([[2]] * 3)
        with pytest.raises(InputError):
            induce_from_ideal_classes(group, chain(3), {frozenset(): 0})


def phi_brute(group, p, d_rep_alpha, i_set):
    """Reference: sum of f(alpha, beta) over beta whose support closure is
    exactly I, one pairing at a time."""
    m = group.exponent
    exps = []
    for b in enumerate_elements(group):
        if closure(p, b.support()) == i_set:
            exps.append(pairing_exponent(d_rep_alpha, b))
    return root_of_unity_sum(m, exps)


class TestIdealSumKernels:
    @pytest.mark.parametrize("spec", [[[2], [2], [2]], [[2], [3], [2]], [[3], [2], [4]]])
    def test_phi_matches_character_sums(self, spec):
        group = build_group_product(spec)
        p = vee()
        pbar = dual_poset(p)
        h = group.h
        for a in enumerate_elements(group):
            d = closure(pbar, a.support())
            for i_set in ideals(p):
                expect = phi_brute(group, p, a, i_set)
                assert as_int(expect) == phi_value(p, h, d, i_set)

    @pytest.mark.parametrize("spec", [[[2], [2], [2]], [[2], [3], [2]]])
    def test_psi_matches_character_sums(self, spec):
        # psi plays the mirror role: sum over alpha with fixed dual closure
        group = build_group_product(spec)
        p = vee()
        pbar = dual_poset(p)
        h = group.h
        m = group.exponent
        for b in enumerate_elements(group):
            i_set = closure(p, b.support())
            for d in ideals(pbar):
                exps = [
                    pairing_exponent(a, b)
                    for a in enumerate_elements(group)
                    if closure(pbar, a.support()) == d
                ]
                expect = as_int(root_of_unity_sum(m, exps))
                assert expect == psi_value(p, h, d, i_set)

    def test_signature_via_ideals_matches_partition_signature(self):
        # the lattice label of alpha's dual class holds the class sums, and
        # F's coefficient at each class weight sums phi over the ideals
        group = build_group_product([[2], [2], [3]])
        p = chain(3)
        omega = WeightFunction.from_mapping(3, {0: 1, 1: 2, 2: 1})
        gamma = induce_Q(group, p, omega)
        lam = DualityContext(group).left_dual(gamma)
        assert lam.blocks is not None
        for a in enumerate_elements(group):
            f = F_poly(group, p, omega, a)
            sig = lam.labels[lam.class_ids[a.index]]
            assert [as_int(v) for v in sig] == [f.coefficient(label) for label in gamma.labels]


POSET_BUILDERS = [
    lambda: chain(3),
    lambda: antichain(3),
    lambda: vee(),
    lambda: validate_and_close(4, [(0, 2), (1, 2), (0, 3), (1, 3)]),
    lambda: validate_and_close(3, [(0, 1)]),
]


class TestFPoly:
    @pytest.mark.parametrize("builder", POSET_BUILDERS)
    def test_ideal_sum_equals_bruteforce(self, builder):
        p = builder()
        group = build_group_product([[2]] * (p.n - 1) + [[3]])
        omega = WeightFunction.from_mapping(p.n, {i: i % 2 + 1 for i in range(p.n)})
        for a in enumerate_elements(group):
            assert f_poly_bruteforce(group, p, omega, a) == F_poly(group, p, omega, a)

    @pytest.mark.parametrize("builder", POSET_BUILDERS[:4])
    def test_hierarchical_engine(self, builder):
        p = builder()
        from dualpart.posets import is_hierarchical

        if not is_hierarchical(p):
            pytest.skip("hierarchical engine requires a hierarchical poset")
        group = build_group_product([[3]] + [[2]] * (p.n - 1))
        omega = WeightFunction.constant(p.n, 2)
        for a in enumerate_elements(group):
            assert f_poly_hierarchical(group, p, omega, a) == F_poly(group, p, omega, a)

    def test_identity_gives_weight_enumerator(self):
        group = build_group_product([[2], [3]])
        p = antichain(2)
        omega = WeightFunction.constant(2)
        f = F_poly(group, p, omega, element_from_index(group, 0))
        # Hamming weight enumerator of Z_2 x Z_3: 1 + 3x + 2x^2
        assert f == SparsePoly({Fraction(0): 1, Fraction(1): 3, Fraction(2): 2})

    def test_degree_formula_when_h_at_least_two(self):
        p = vee()
        group = build_group_product([[2], [3], [2]])
        omega = WeightFunction.from_mapping(3, {0: 1, 1: 2, 2: "1/2"})
        for a in enumerate_elements(group):
            f = F_poly(group, p, omega, a)
            _, expect = f_poly_degree_ideal(group, p, omega, a)
            assert f.degree == expect


class TestKrawtchoukMatrix:
    def test_hamming_matrix_is_ku_table(self):
        group = build_group_product([[2]] * 4)
        gamma = induce_CO(group, pk_covering(1, 4))
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        res = krawtchouk_matrix(ctx, lam, gamma)
        assert res.ok
        for a in range(lam.num_classes):
            rep = int(members(lam, a)[0])
            t = bin(rep).count("1")
            assert [as_int(v) for v in res.rho[a]] == [
                ku_eval(4, l, 2, t) for l in range(5)
            ]

    def test_representative_independence(self):
        group = build_group_product([[3]] * 3)
        gamma = induce_CO(group, pk_covering(1, 3))
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        for a in range(lam.num_classes):
            sigs = {signature(ctx, int(i), gamma) for i in members(lam, a)}
            assert len(sigs) == 1

    def test_precondition_violation_reports_witness(self):
        group = build_group_product([[2]] * 3)
        gamma = induce_CO(group, pk_covering(1, 3))
        ctx = DualityContext(group)
        coarse = Partition.from_keys([0] * group.order, host=group)
        res = krawtchouk_matrix(ctx, coarse, gamma)
        assert not res.ok and res.witness is not None


def random_additive_code(group, rng):
    gens = [rng.randrange(group.order) for _ in range(rng.randrange(1, 3))]
    code = {element_from_index(group, 0).index}
    frontier = [element_from_index(group, g) for g in gens]
    els = {element_from_index(group, i) for i in code}
    changed = True
    members = {element_from_index(group, 0)}
    for g in frontier:
        new = set()
        for m in members:
            x = m
            while True:
                x = x * g
                if x in members or x in new:
                    break
                new.add(x)
        # close under the subgroup generated so far
        while new:
            members |= new
            nxt = set()
            for a in members:
                for b in [g]:
                    c = a * b
                    if c not in members:
                        nxt.add(c)
            new = nxt
    return sorted(m.index for m in members)


class TestMacWilliamsIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_codes_hamming(self, seed):
        rng = random.Random(seed)
        group = build_group_product([[2], [3], [2], [2]])
        code = random_additive_code(group, rng)
        gamma = induce_CO(group, pk_covering(1, 4))
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        assert macwilliams_identity_holds(ctx, code, annihilator(group, code), lam, gamma)

    @pytest.mark.parametrize("spec", [[[4], [2]], [[3], [3]], [[12]], [[5]]], ids=str)
    def test_matches_cycint_sums_on_any_index_sets(self, spec):
        group = build_group_product(spec)
        rng = random.Random(str(spec))
        ctx = DualityContext(group)
        for k in (2, group.order // 2, group.order):
            gamma = random_partition(group, k, k)
            lam = ctx.left_dual(gamma)
            cases = [([0], list(range(group.order)))]
            cases += [[sorted(rng.sample(range(group.order), rng.randrange(group.order + 1))) for _ in "cd"] for _ in range(20)]
            for code, dual in cases:
                want = identity_by_cycint(ctx, np.array(code, dtype=np.int64), np.array(dual, dtype=np.int64), lam, gamma)
                assert macwilliams_identity_holds(ctx, code, dual, lam, gamma) == want

    def test_zeta_coordinates_decide_too(self):
        # Z/3, Gamma = {0, 1 | 2}, C = {2}: the class sums at 2 are
        # 1 + zeta^2 = -zeta and zeta, 0 in coordinate 0 as |C| times the
        # distribution of an empty C~ is, yet the identity fails
        group = build_group_product([[3]])
        gamma = Partition.from_keys([0, 0, 1], host=group)
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        assert not macwilliams_identity_holds(ctx, [2], [], lam, gamma)
        assert not identity_by_cycint(ctx, np.array([2]), np.array([], dtype=np.int64), lam, gamma)

    def test_rejects_non_finer_lambda(self):
        group = build_group_product([[2]] * 3)
        gamma = induce_CO(group, pk_covering(1, 3))
        ctx = DualityContext(group)
        coarse = Partition.from_keys([0] * group.order, host=group)
        with pytest.raises(InputError):
            macwilliams_identity_holds(ctx, [0], range(8), coarse, gamma)


class TestTheoremCheckers:
    def test_chain_all_true(self):
        group = build_group_product([[2], [3], [2]])
        p, omega = chain(3), WeightFunction.constant(3)
        udp_ok, _ = udp_check(p, omega.values, automorphism_group(p, omega.values)[1])
        rep = theorem32_check(group, p, omega, udp_ok)
        assert rep["equivalent"] and all(
            rep[k] for k in ("udp_and_labels", "mutually_dual", "reflexive", "dual_is_Q_of_dual_poset")
        )

    def test_udp_failure_breaks_everything_together(self):
        # antichain with weights 1,2,3 has no UDP; groups Z_2^3
        group = build_group_product([[2]] * 3)
        p, omega = antichain(3), WeightFunction.from_mapping(3, {0: 1, 1: 2, 2: 3})
        udp_ok, _ = udp_check(p, omega.values, automorphism_group(p, omega.values)[1])
        rep = theorem32_check(group, p, omega, udp_ok)
        assert rep["equivalent"] and not rep["reflexive"]
        assert rep["lambda_finer_than_Q_dual"]

    def test_prop33_predicate_matches_dual_classes(self):
        group = build_group_product([[2]] * 3)
        p = antichain(3)
        omega = WeightFunction.constant(3)
        gamma = induce_Q(group, p, omega)
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        for i in range(group.order):
            for j in range(group.order):
                same = lam.class_ids[i] == lam.class_ids[j]
                pred = prop33_predicate(
                    group,
                    p,
                    omega,
                    element_from_index(group, i),
                    element_from_index(group, j),
                )
                assert same == pred

    def test_theorem41_partition_covering(self):
        group = build_group_product([[2], [2], [2], [2]])
        t = covering_from_members(4, [[0, 1], [2, 3]])
        rep = theorem41_check(group, t)
        assert rep["equivalent"] and rep["co_equals_dual"]

    def test_theorem41_unequal_products(self):
        group = build_group_product([[2], [2], [3]])
        t = covering_from_members(3, [[0, 1], [2]])
        rep = theorem41_check(group, t)
        assert rep["equivalent"] and not rep["partition_with_equal_products"]

    def test_theorem41_requires_antichain(self):
        group = build_group_product([[2], [2]])
        with pytest.raises(InputError):
            theorem41_check(group, covering_from_members(2, [[0], [0, 1]]))


class TestSupportProfileEngine:
    # the library's one Krawtchouk table, whose column t is profile t,
    # against the division and convolution profiles and the binomial sum,
    # none of which runs the recurrence
    @pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5, 7, 16) for n in range(41)])
    def test_profile_matches_krawtchouk_values(self, q, n):
        columns = [list(col) for col in zip(*ku_value_table(n, q))]
        for t, prof in enumerate(hamming_sum_profiles(q, n)):
            assert prof == columns[t] == [ku_eval(n, l, q, t) for l in range(n + 1)]

    def test_profiles_match_convolution_oracle(self):
        for q in (2, 3, 4, 5, 7, 16):
            for n in range(41):
                columns = [list(col) for col in zip(*ku_value_table(n, q))]
                want = [hamming_sum_profile(q, n, t) for t in range(n + 1)]
                assert hamming_sum_profiles(q, n) == columns == want, (q, n)

    def test_dual_class_count_matches_signatures(self):
        # the count from the inner bounds against every class sum, the
        # edges k = n (no inner bound) and n = 1 included
        for q in (2, 3, 5):
            for n in range(1, 17):
                for k in range(1, n + 1):
                    want = len(set(co_support_signatures(q, n, k)[1:])) + 1
                    assert co_dual_class_count(q, n, k) == want, (q, n, k)
            assert co_dual_class_count(q, 1, 1) == 2

    @pytest.mark.parametrize("q,n,k", [(2, 5, 3), (2, 6, 2), (3, 4, 2), (3, 5, 3)])
    def test_dual_class_count_matches_pairwise_engine(self, q, n, k):
        group = build_group_product([[q]] * n)
        gamma = induce_CO(group, pk_covering(k, n))
        ctx = DualityContext(group)
        assert ctx._dual(ctx.exponents, gamma).num_classes == co_dual_class_count(q, n, k)

    def test_signature_depends_only_on_support_size(self):
        group = build_group_product([[3]] * 4)
        gamma = induce_CO(group, pk_covering(2, 4))
        ctx = DualityContext(group)
        sigs = co_support_signatures(3, 4, 2)
        for idx in range(1, group.order):
            el = element_from_index(group, idx)
            t = len(el.support())
            sig = tuple(as_int(v) for v in signature(ctx, idx, gamma))
            assert sig == sigs[t]

    def test_engines_agree_on_verdict(self):
        # the support-profile verdict against the support-lattice dual, for
        # every k; the lattice builds no pairing table
        for q, n_max in ((2, 14), (3, 9), (4, 6), (5, 6)):
            for n in range(1, n_max + 1):
                group = build_group_product([[q]] * n)
                ctx = DualityContext(group)
                for k in range(1, n + 1):
                    gamma = induce_CO(group, pk_covering(k, n))
                    dual_classes = ctx.left_dual(gamma).num_classes
                    got = co_reflexivity_bruteforce(q, n, k)
                    assert got["co_classes"] == gamma.num_classes, (q, n, k)
                    assert got["dual_classes"] == dual_classes, (q, n, k)
                    assert got["reflexive"] == (gamma.num_classes == dual_classes)
                assert ctx._table is None

    def test_bruteforce_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            co_reflexivity_bruteforce(2, 4, 5)
        with pytest.raises(InputError):
            co_reflexivity_bruteforce(1, 4, 2)


ORACLE_GROUPS = [
    [[2], [2]],
    [[3], [3], [3]],
    [[2], [4], [8]],
    [[5], [5]],
    [[2], [2], [3], [3]],
    [[2], [2, 3], [5]],
    [[2], [4], [2, 3], [5], [2]],
]


class TestRightDualOracle:
    @pytest.mark.parametrize("spec", ORACLE_GROUPS, ids=str)
    def test_right_dual_matches_transposed_table(self, spec):
        group = build_group_product(spec)
        m = group.exponent
        unit = next(s for s in range(2, m + 2) if math.gcd(s, m) == 1)
        rng = random.Random(str(spec))
        ids = [rng.randrange(group.order // 4) for _ in range(group.order)]
        partitions = [
            induce_CO(group, pk_covering(2, group.n)),
            Partition.from_keys(ids, host=group),
        ]
        ctx = DualityContext(group)
        scaled = scaled_exponents(ctx, unit)
        for table in (ctx.exponents, scaled):
            assert np.array_equal(table, table.T)
        for lam in partitions:
            got = ctx.right_dual(lam)
            want = ctx._dual(ctx.exponents.T, lam)
            assert np.array_equal(got.class_ids, want.class_ids)
            assert got.labels == want.labels
            got_u, want_u = ctx._dual(scaled, lam), ctx._dual(scaled.T, lam)
            assert np.array_equal(got_u.class_ids, want_u.class_ids)
            assert got_u.labels == want_u.labels
            assert got_u == got  # the dual under chi^unit is the dual under chi


# m = 2, odd primes and composites; every group has negative coordinates
DUAL_ORACLE_GROUPS = [
    [[2]] * 6,
    [[2], [2, 2]],
    [[3], [3], [3]],
    [[7], [7]],
    [[4], [2, 3]],
    [[9], [3]],
    [[2], [2, 3], [5]],
    [[60]],
]


# one group per modulus m in {2, 5, 7, 48, 60, 120, 122, 222, 105, 210, 315}
FOLD_GROUPS = [
    [[2]] * 6,
    [[5]] * 3,
    [[7]] * 2,
    [[48]],
    [[60]],
    [[4], [120]],
    [[122]],
    [[222]],
    [[3], [5], [7]],
    [[210]],
    [[9], [5], [7]],
]


def random_partition(group, k, seed):
    rng = random.Random(seed)
    ids = list(range(k)) + [rng.randrange(k) for _ in range(group.order - k)]
    rng.shuffle(ids)
    return Partition.from_keys(ids, host=group)


class TestDualOracle:
    @pytest.mark.parametrize("spec", DUAL_ORACLE_GROUPS, ids=str)
    def test_dual_matches_eager_form(self, spec):
        group = build_group_product(spec)
        m = group.exponent
        unit = next(s for s in range(m - 1, 0, -1) if math.gcd(s, m) == 1)
        partitions = [random_partition(group, max(1, group.order // r), r) for r in (1, 2, 4, 16)]
        if group.n > 1:
            partitions.append(induce_CO(group, pk_covering(2, group.n)))
        negative = False
        ctx = DualityContext(group)
        for part in partitions:
            duals = []
            for table in (ctx.exponents, scaled_exponents(ctx, unit)):
                coords = ctx._coords(table, part)
                assert np.array_equal(coords, onehot_coords(ctx, table, part))
                negative |= bool((coords < 0).any())
                got = ctx._dual(table, part)
                ids, labels = eager_dual(ctx, table, part)
                assert np.array_equal(got.class_ids, ids)
                assert isinstance(got.labels, SignatureLabels)
                assert got.labels == labels
                assert [str(x) for x in got.labels] == [str(x) for x in labels]
                duals.append(got)
            assert duals[0] == duals[1]  # the dual under chi^unit is the dual under chi
        assert negative

    @pytest.mark.parametrize("spec", [[[2]] * 10, [[3]] * 6], ids=str)
    def test_numbering_beyond_one_byte(self, spec):
        # character sums spanning more than 256 values: the byte key must
        # still sort as the numbers do
        group = build_group_product(spec)
        gamma = induce_CO(group, pk_covering(1, group.n))
        ctx = DualityContext(group)
        coords = ctx._coords(ctx.exponents, gamma)
        assert coords.max() - coords.min() > 256
        got = ctx._dual(ctx.exponents, gamma)
        ids, labels = eager_dual(ctx, ctx.exponents, gamma)
        assert np.array_equal(got.class_ids, ids)
        assert got.labels == labels

    @pytest.mark.parametrize("spec", FOLD_GROUPS, ids=str)
    def test_fold_matches_reduction_matrix(self, spec):
        # sparse Phi_m (a run of several tops per fold), dense Phi_m (one top
        # per run) and a coefficient -2 or 2 (m = 105, 210, 315); every
        # discrete partition with m > 60 spans more than one block of rows
        group = build_group_product(spec)
        ctx = DualityContext(group)
        m = ctx.m
        unit = next(s for s in range(m - 1, 0, -1) if math.gcd(s, m) == 1)
        discrete = Partition(np.arange(group.order), host=group)
        for part in (discrete, random_partition(group, max(2, group.order // 8), m)):
            for table in (ctx.exponents, scaled_exponents(ctx, unit)):
                rows = table[:: max(1, group.order // 48)]
                assert np.array_equal(ctx._coords(rows, part), onehot_coords(ctx, rows, part))

    def test_labels_of_modulus_one(self):
        rows = np.array([[3, -1], [0, 2]])
        labels = SignatureLabels(1, rows, 2)
        assert labels == [
            (from_int(3, 1), from_int(-1, 1)),
            (from_int(0, 1), from_int(2, 1)),
        ]
        assert labels[-1] == labels[1]
        with pytest.raises(IndexError):
            labels[2]

    def test_label_cap_leaves_labels_out(self):
        # 2048 distinct signatures times 1024 classes exceeds 2^20 labels:
        # the dual keeps them, its export leaves them out
        group = build_group_product([[2]] * 11)
        gamma = random_partition(group, 1024, 0)
        lam = DualityContext(group).left_dual(gamma)
        assert len(lam.labels) == lam.num_classes == 2048
        assert lam.export()["labels"] is None


# one group per modulus m in {2, 12, 30, 60, 105, 120}; Phi_105 has a
# coefficient -2, and x^e mod Phi_105 has coefficients up to 2 (R = 2)
SPLIT_GROUPS = [
    [[2]] * 5,
    [[4], [3]],
    [[2, 3], [5]],
    [[60]],
    [[3], [5], [7]],
    [[120]],
]


def split_partitions(group):
    """Random partitions with k = 1, 2, |G|/8, |G|/2 and |G| classes."""
    order = group.order
    return [random_partition(group, k, k) for k in sorted({1, 2, max(1, order // 8), order // 2, order})]


def eager_reflexivity(ctx, gamma):
    """``reflexivity_check(ctx, gamma, compute_bidual=True)`` from the
    classes of ``eager_dual``."""
    lam = Partition(eager_dual(ctx, ctx.exponents, gamma)[0], host=ctx.group)
    bidual = Partition(eager_dual(ctx, ctx.exponents, lam)[0], host=ctx.group)
    reflexive = gamma.num_classes == lam.num_classes
    return {
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
        "reflexive": reflexive,
        "verdict": "reflexive" if reflexive else "non-reflexive",
        "bidual_classes": bidual.num_classes,
        "bidual_equals_gamma": bidual == gamma,
    }


class TestSplitPrimeEvaluation:
    """The pairwise engine's classes, by evaluation at a split prime,
    against the eager coordinates of every pairing row."""

    @pytest.mark.parametrize("spec", SPLIT_GROUPS, ids=str)
    def test_prime_root_and_unit_map(self, spec):
        group = build_group_product(spec)
        ctx = DualityContext(group)
        m, order = ctx.m, group.order
        p, powers = ctx._evaluation()
        units = ctx._unit_index()
        # the least prime = 1 (mod m) above the norm bound 2 |G|, by trial
        # division
        primes = (q for q in range(2 * order + 1, p + 1) if all(q % d for d in range(2, math.isqrt(q) + 1)))
        assert [q for q in primes if q % m == 1] == [p]
        omega = int(powers[1])
        assert [int(x) for x in powers] == [pow(omega, e, p) for e in range(m)]
        assert min(e for e in range(1, m + 1) if pow(omega, e, p) == 1) == m
        # column j holds u_j * a for the j-th unit u_j: e(u a, b) = u e(a, b)
        table = ctx.exponents.astype(np.int64)
        unit_list = [u for u in range(1, m) if math.gcd(u, m) == 1]
        assert units.shape == (order, len(unit_list))
        for j, u in enumerate(unit_list):
            assert np.array_equal(table[units[:, j]], table * u % m)

    @pytest.mark.parametrize("spec", SPLIT_GROUPS, ids=str)
    def test_dual_matches_eager_form(self, spec):
        group = build_group_product(spec)
        ctx = DualityContext(group)
        unit = next(s for s in range(ctx.m - 1, 0, -1) if math.gcd(s, ctx.m) == 1)
        for part in split_partitions(group):
            for table in (ctx.exponents, scaled_exponents(ctx, unit)):
                got = ctx._dual(table, part)
                ids, labels = eager_dual(ctx, table, part)
                assert np.array_equal(got.class_ids, ids)
                assert got.labels == labels

    @pytest.mark.parametrize("spec", SPLIT_GROUPS, ids=str)
    def test_norm_prime_matches_height_prime(self, spec, monkeypatch):
        # the classes and labels at the least prime above 2 |G| are those
        # at the least prime above 2 |G| R, R the largest |coefficient| of
        # x^e mod Phi_m, where coordinates below p in size decide equality
        import dualpart.partitions as partitions

        group = build_group_product(spec)
        ctx = DualityContext(group)
        m = ctx.m
        unit = next(s for s in range(m - 1, 0, -1) if math.gcd(s, m) == 1)
        height = max(abs(c) for row in reduction_rows(m) for c in row)
        assert height == (2 if m == 105 else 1)
        p = ctx._evaluation()[0]
        split = partitions._split_prime
        monkeypatch.setattr(partitions, "_split_prime", lambda m, order: split(m, order * height))
        by_height = DualityContext(group)
        assert by_height._evaluation()[0] > 2 * group.order * height
        # at m = 105 the primes differ: 211 against 421
        assert (p < 2 * group.order * height) == (height > 1)
        for part in split_partitions(group):
            for table in (ctx.exponents, scaled_exponents(ctx, unit)):
                got, want = ctx._dual(table, part), by_height._dual(table, part)
                assert np.array_equal(got.class_ids, want.class_ids)
                assert got.labels == want.labels

    @pytest.mark.parametrize("spec", SPLIT_GROUPS, ids=str)
    def test_check_folds_no_coordinate(self, spec, monkeypatch):
        group = build_group_product(spec)
        parts = split_partitions(group)
        want = [eager_reflexivity(DualityContext(group), gamma) for gamma in parts]

        def no_fold(*args):
            raise AssertionError("cyclotomic coordinates folded")

        monkeypatch.setattr(DualityContext, "_coords", no_fold)
        assert [reflexivity_check(DualityContext(group), gamma, compute_bidual=True) for gamma in parts] == want

    @pytest.mark.parametrize("order", [1, 1 << 24])
    def test_split_prime_takes_the_least_generator(self, order):
        # omega is g^((p - 1) / m) for the least g >= 2 that gives it the
        # order m, against the primes of m found by a primality scan
        import dualpart.partitions as partitions

        for m in range(1, 2001):
            p, omega = partitions._split_prime(m, order)
            assert (p - 1) % m == 0 and _is_prime(p)
            primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
            omegas = (pow(g, (p - 1) // m, p) for g in itertools.count(2))
            assert omega == next(w for w in omegas if all(pow(w, m // q, p) != 1 for q in primes)), m

    def test_python_int_sums_past_int64(self, monkeypatch):
        # a prime above 2^41 leaves p^2 past 2^62: powers and sums are
        # Python ints, and the classes and labels stay the same
        import dualpart.partitions as partitions

        group = build_group_product([[4], [3], [5]])
        split = partitions._split_prime
        monkeypatch.setattr(partitions, "_split_prime", lambda m, order: split(m, 1 << 40))
        ctx = DualityContext(group)
        p, powers = ctx._evaluation()
        assert p > 1 << 41 and powers.dtype == object
        for part in split_partitions(group):
            got = ctx._dual(ctx.exponents, part)
            ids, labels = eager_dual(ctx, ctx.exponents, part)
            assert np.array_equal(got.class_ids, ids) and got.labels == labels

    def test_left_dual_after_check_evaluates_once(self, monkeypatch):
        group = build_group_product([[2], [6], [10]])
        gamma = random_partition(group, 30, 0)
        ctx = DualityContext(group)
        calls = []
        classes = DualityContext._classes

        def counted(self, *args):
            calls.append(1)
            return classes(self, *args)

        monkeypatch.setattr(DualityContext, "_classes", counted)
        report = reflexivity_check(ctx, gamma, compute_bidual=True)
        assert len(calls) == 2  # l(Gamma) and the bidual
        lam = ctx.left_dual(gamma)
        assert len(calls) == 2 and ctx.left_dual(gamma) is lam
        ids, labels = eager_dual(ctx, ctx.exponents, gamma)
        assert lam.num_classes == report["dual_classes"]
        assert np.array_equal(lam.class_ids, ids) and lam.labels == labels

    def test_discrete_gamma_evaluates_nothing(self, monkeypatch):
        # characters separate points: the dual of the discrete partition is
        # discrete, and so is its bidual, with no evaluation at all
        group = build_group_product([[2], [6], [10]])
        gamma = Partition(np.arange(group.order), host=group)
        ctx = DualityContext(group)
        ids, labels = eager_dual(ctx, ctx.exponents, gamma)

        def no_evaluation(*args):
            raise AssertionError("class sums evaluated")

        monkeypatch.setattr(DualityContext, "_evaluation", no_evaluation)
        report = reflexivity_check(ctx, gamma, compute_bidual=True)
        assert report["dual_classes"] == report["bidual_classes"] == group.order
        assert report["reflexive"] and report["bidual_equals_gamma"]
        lam = ctx.left_dual(gamma)
        assert np.array_equal(lam.class_ids, ids) and lam.labels == labels

    def test_discrete_exits_build_no_unit_map(self, monkeypatch):
        # the discrete partition and {1} against the rest on Z/8 take the
        # two exits of _classes; only the tie of {2, 3, 5, 6, 7} against
        # the rest reaches the unit gather and builds the map
        group = build_group_product([[8]])
        ctx = DualityContext(group)
        exits = (np.arange(8), [1, 0, 1, 1, 1, 1, 1, 1])
        want = [eager_dual(ctx, ctx.exponents, Partition(ids, host=group))[0] for ids in exits]

        def no_unit_map(*args):
            raise AssertionError("unit index map built")

        monkeypatch.setattr(DualityContext, "_unit_index", no_unit_map)
        for ids, ref in zip(exits, want):
            part = Partition(ids, host=group)
            assert ctx._classes(ctx.exponents, part) == Partition(ref, host=group)
            assert np.array_equal(DualityContext(group).left_dual(part).class_ids, ref)
        with pytest.raises(AssertionError, match="unit index map built"):
            ctx._classes(ctx.exponents, Partition([0, 0, 1, 1, 0, 1, 1, 1], host=group))

    def test_discrete_gamma_answered_under_evaluation_cap(self):
        # |G| * k = 120^2 evaluation cells would be refused, as 120 * 119
        # are, but a discrete partition's dual is answered before the cap
        # is read
        group = build_group_product([[120]])
        table = DualityContext(group).exponents
        discrete = Partition(np.arange(group.order), host=group)
        tight = DualityContext(group, RunConfig(pair_work_cap=120 * 119 - 1))
        assert tight._classes(table, discrete) == discrete
        with pytest.raises(BudgetError, match=r"^\|G\| \* k evaluation cells = 14280 exceeds"):
            tight._classes(table, random_partition(group, group.order - 1, 0))

    def test_discrete_exits_and_unit_gather(self, monkeypatch):
        # on Z/8 (p = 17), the distinct rows of each ranking: the discrete
        # partition exits before any; {1} against the rest has 8 distinct
        # rows at omega and exits after one; {2, 3, 5, 6, 7} against the
        # rest ties at omega (7 distinct rows), and only the gather over
        # the units splits the tie, into 8 classes
        import dualpart.partitions as partitions

        group = build_group_product([[8]])
        ctx = DualityContext(group)
        assert ctx._evaluation()[0] == 17
        ranked = []
        rank_rows = partitions._rank_rows

        def counted(rows):
            first, inverse = rank_rows(rows)
            ranked.append(len(first))
            return first, inverse

        monkeypatch.setattr(partitions, "_rank_rows", counted)
        paths = [(np.arange(8), []), ([1, 0, 1, 1, 1, 1, 1, 1], [8]), ([0, 0, 1, 1, 0, 1, 1, 1], [7, 8])]
        for ids, rankings in paths:
            part = Partition(ids, host=group)
            for table in (ctx.exponents, scaled_exponents(ctx, 3)):
                ranked.clear()
                got = ctx._classes(table, part)
                assert ranked == rankings
                assert got.num_classes == 8
                assert got == Partition(eager_dual(ctx, table, part)[0])


def _ranked_by_bytes(rows):
    """Oracle: first index and rank of each row by its big-endian 8-byte
    entries after the shift to 0."""
    key = (rows - rows.min()).astype(">u8")
    view = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


class TestRankRows:
    @pytest.mark.parametrize("span", [255, 256, 65535, 65536, 2**32 - 1, 2**32])
    @pytest.mark.parametrize("low", [0, -3, -(2**40)])
    def test_narrow_keys_rank_as_wide_keys(self, span, low):
        # spans on each side of a key-width boundary, and negative entries
        rng = np.random.default_rng(span)
        rows = rng.integers(0, span, size=(300, 3), endpoint=True) + low
        rows[0, 0], rows[1, 2] = low, low + span
        rows = np.concatenate([rows, rows[::4]])
        want_first, want_inverse = _ranked_by_bytes(rows)
        first, inverse = _rank_rows(rows)
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse)

    @pytest.mark.parametrize(
        "radix,cols,packed",
        [
            # (span + 1)^cols on each side of 2^63
            (2**21 - 1, 3, True),
            (2**21, 3, False),
            (2, 62, True),
            (2, 63, False),
            (2**63 - 1, 1, True),
            (2**63, 1, False),
            # the shapes of lambda-distributions and refinement keys
            (4, 20, True),
            (301, 3, True),
            (1396, 3, True),
            (9, 12, True),
        ],
    )
    def test_packed_keys_rank_as_bytes(self, monkeypatch, radix, cols, packed):
        rng = np.random.default_rng(cols)
        rows = rng.integers(0, radix, size=(400, cols), dtype=np.int64)
        rows[0, 0], rows[1, -1] = 0, radix - 1
        rows = np.concatenate([rows, rows[::3], rows[:1] * 0])
        if radix < 1 << 62:
            rows -= 5
        keys = []
        unique = np.unique

        def spy(ar, *args, **kwargs):
            keys.append(ar.dtype)
            return unique(ar, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        first, inverse = _rank_rows(rows)
        monkeypatch.undo()
        want_first, want_inverse = _ranked_by_bytes(rows)
        # one int64 key per row, or the rows' bytes
        assert [key.kind for key in keys] == ["i" if packed else "V"]
        assert np.array_equal(first, want_first)
        assert np.array_equal(inverse, want_inverse)

    def test_python_int_rows_rank_as_int64_rows(self):
        # rows of Python ints (sums above 2^62) rank as the same numbers
        # in int64 do, and rows past int64 rank by their values
        rng = np.random.default_rng(7)
        rows = rng.integers(-50, 50, size=(400, 3))
        rows[::7] = rows[3]
        first, inverse = _rank_rows(rows.astype(object))
        want_first, want_inverse = _rank_rows(rows)
        assert np.array_equal(first, want_first) and np.array_equal(inverse, want_inverse)
        big = np.array([[2**64, -1], [-(2**70), 5], [2**64, -1], [2**64, -2]], dtype=object)
        first, inverse = _rank_rows(big)
        assert first.tolist() == [1, 3, 0] and inverse.tolist() == [2, 0, 2, 1]


class TestDualGuards:
    def test_verdict_builds_no_labels(self, monkeypatch):
        built = []
        init = CycInt.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        group = build_group_product([[120]])
        gamma = random_partition(group, 60, 0)
        ctx = DualityContext(group)
        monkeypatch.setattr(CycInt, "__init__", counting_init)
        report = reflexivity_check(ctx, gamma, compute_bidual=True)
        lam = ctx.left_dual(gamma)
        assert len(lam.labels) == lam.num_classes == report["dual_classes"]
        assert not built
        lam.labels[0]
        assert len(built) == gamma.num_classes

    def test_dual_does_not_keep_context_alive(self):
        group = build_group_product([[2], [4], [3]])
        gamma = random_partition(group, 6, 0)
        gc.disable()
        try:
            ctx = DualityContext(group)
            lam = ctx.left_dual(gamma)
            bidual = ctx.right_dual(lam)
            ref = weakref.ref(ctx)
            del ctx
            assert ref() is None
            assert len(lam.labels) == lam.num_classes and bidual.labels is not None
        finally:
            gc.enable()

    def test_histogram_chunks_bounded_by_cells(self, monkeypatch):
        group = build_group_product([[256]])
        gamma = random_partition(group, 128, 0)
        ctx = DualityContext(group)
        bound = max(1 << 18, gamma.num_classes * ctx.m)
        asked = []
        bincount = np.bincount

        def spy(x, weights=None, minlength=0):
            asked.append(minlength)
            return bincount(x, weights, minlength)

        monkeypatch.setattr(np, "bincount", spy)
        coords = ctx._coords(ctx.exponents, gamma)
        assert len(asked) > 1 and max(asked) <= bound
        # the chunked rows equal the rows taken one at a time
        for a in range(group.order):
            assert np.array_equal(coords[a], ctx._coords(ctx.exponents[a : a + 1], gamma)[0])


# non-cyclic coordinates, mixed h_i, and exponents m = 2, 3, 4, 6, 12, 60
LATTICE_GROUPS = [
    [[2]] * 5,
    [[2], [2, 2], [2]],
    [[3]] * 4,
    [[4], [2], [2, 2]],
    [[2], [2, 3], [3]],
    [[4], [2, 3], [2]],
    [[4], [3], [5]],
]


def random_covering(n, rng):
    members = [[i, (i + 1) % n] for i in range(0, n, 2)]
    members += [rng.sample(range(n), 2) for _ in range(2)]
    return covering_from_members(n, members)


def levels_poset(sizes):
    """Hierarchical: every element of a level lies below the next level."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    levels = [range(a, b) for a, b in zip(bounds, bounds[1:])]
    return validate_and_close(bounds[-1], [(u, v) for lo, hi in zip(levels, levels[1:]) for u in lo for v in hi])


def support_induced_partitions(group, seed):
    """induce_CO, induce_Q and induce_from_ideal_classes on one group."""
    n = group.n
    rng = random.Random(seed)
    rational = WeightFunction(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n)))
    hier = levels_poset([1, n - 2, 1] if n > 2 else [1, n - 1])
    parts = [
        induce_CO(group, pk_covering(1, n)),
        induce_CO(group, pk_covering(2, n)),
        induce_CO(group, random_covering(n, rng)),
        induce_Q(group, chain(n), WeightFunction.constant(n)),
        induce_Q(group, chain(n), rational),
        induce_Q(group, antichain(n), rational),
        induce_Q(group, hier, WeightFunction.constant(n, 2)),
        induce_Q(group, hier, rational),
        induce_from_ideal_classes(group, hier, {i: rng.randrange(3) for i in ideals(hier)}),
        induce_from_ideal_classes(group, antichain(n), {i: len(i) % 2 for i in ideals(antichain(n))}),
    ]
    assert all(part.blocks is not None for part in parts)
    return parts


def assert_same_dual(got, want):
    assert got.blocks is not None and want.blocks is None
    assert np.array_equal(got.class_ids, want.class_ids)
    assert isinstance(got.labels, SignatureLabels)
    assert np.array_equal(got.labels.rows, want.labels.rows)
    assert got.labels == want.labels


class TestLatticeOracle:
    """The support lattice against the pairwise engine: identical class
    numbering and identical labels, for the left dual and the bidual."""

    @pytest.mark.parametrize("spec", LATTICE_GROUPS, ids=str)
    def test_left_dual_and_bidual_match_pairwise(self, spec):
        group = build_group_product(spec)
        m = group.exponent
        unit = next(s for s in range(m - 1, 0, -1) if math.gcd(s, m) == 1)
        parts = support_induced_partitions(group, str(spec))
        ctx = DualityContext(group)
        for table in (ctx.exponents, scaled_exponents(ctx, unit)):
            for gamma in parts:
                lam = ctx.left_dual(gamma)
                assert_same_dual(lam, ctx._dual(table, gamma))
                assert_same_dual(ctx.right_dual(lam), ctx._dual(table, lam))

    def test_lattice_builds_no_pairing_table(self):
        group = build_group_product([[2], [3], [4]])
        ctx = DualityContext(group)
        rep = reflexivity_check(ctx, induce_CO(group, pk_covering(2, 3)), compute_bidual=True)
        assert rep == {
            "gamma_classes": 3,
            "dual_classes": 8,
            "reflexive": False,
            "verdict": "non-reflexive",
            "bidual_classes": 8,
            "bidual_equals_gamma": False,
        }
        assert ctx._table is None

    def test_other_partitions_take_the_pairwise_engine(self):
        group = build_group_product([[2], [3]])
        gamma = random_partition(group, 3, 0)
        assert gamma.blocks is None
        lam = DualityContext(group).left_dual(gamma)
        assert lam.blocks is None and lam == brute_force_left_dual(group, gamma)

    def test_partition_of_another_group_rejected(self):
        a = build_group_product([[2], [3]])
        b = build_group_product([[3], [2]])
        with pytest.raises(InputError):
            DualityContext(b).left_dual(induce_CO(a, pk_covering(1, 2)))

    def test_unsortable_labels_numbered_as_over_the_group(self):
        group = build_group_product([[3], [2], [2]])
        p = antichain(3)
        # {2} is the support of element 1, {0} that of element 4: over G the
        # class of (2,) comes first, over the masks in plain order "x" would
        tags = {i: 0 for i in ideals(p)}
        tags[frozenset({0})], tags[frozenset({2})] = "x", (2,)
        part = induce_from_ideal_classes(group, p, tags)
        keys = [tags[closure(p, el.support())] for el in enumerate_elements(group)]
        want = Partition.from_keys(keys)
        assert want.labels == [0, (2,), "x"]
        assert np.array_equal(part.class_ids, want.class_ids) and part.labels == want.labels


# alphabets of one coordinate: Z/4 and Z/2 x Z/2 share h = 4
ALPHABETS = [(2,), (3,), (4,), (2, 2), (5,)]


@st.composite
def twin_instances(draw):
    """A mixed alphabet prod (Z/h_b)^(n_b), |G| <= 2^12, its coordinates
    shuffled so that twin blocks interleave, and a support-induced
    partition of it with its element-by-element keys."""
    coords = []
    for alphabet in draw(st.lists(st.sampled_from(ALPHABETS), min_size=1, max_size=3, unique=True)):
        coords += [list(alphabet)] * draw(st.integers(1, 4))
    coords = draw(st.permutations(coords))
    while math.prod(math.prod(c) for c in coords) > 1 << 12:
        coords = coords[:-1]
    group = build_group_product(coords)
    n, rng = group.n, draw(st.randoms(use_true_random=False))
    els = enumerate_elements(group)
    kind = draw(st.sampled_from(["pk", "covering", "poset", "ideals"]))
    if kind == "pk":
        k = draw(st.integers(1, n))
        return group, induce_CO(group, pk_covering(k, n)), [-(-len(el.support()) // k) for el in els]
    if kind == "covering":
        # members closed under the permutations of a random set T, so the
        # coordinates of T of one order are twins
        t = set(rng.sample(range(n), min(n, rng.randint(2, 4))))
        members = {frozenset(rng.sample(range(n), rng.randint(1, n))) for _ in range(rng.randint(1, 3))}
        members |= {frozenset([i]) for i in range(n) if rng.random() < 0.5 or not any(i in m for m in members)}
        members = {(m - t) | set(s) for m in members for s in itertools.combinations(sorted(t), len(m & t))}
        cover = covering_from_members(n, [sorted(m) for m in members])
        return group, induce_CO(group, cover), [covering_weight(cover, el.support()) for el in els]
    # a hierarchical poset (levels in a shuffled order) or a random one;
    # weights from a small set, so twins are common
    if rng.random() < 0.7:
        lvl = [rng.randrange(3) for _ in range(n)]
        p = validate_and_close(n, [(u, v) for u in range(n) for v in range(n) if lvl[u] < lvl[v]])
    else:
        order = rng.sample(range(n), n)
        p = validate_and_close(n, [(order[a], order[b]) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3])
    if kind == "poset":
        omega = WeightFunction(tuple(Fraction(rng.choice(["1", "2", "1/2"])) for _ in range(n)))
        return group, induce_Q(group, p, omega), [wpm_weight(p, omega, el) for el in els]
    tags = {i: rng.randrange(3) for i in ideals(p)}
    return group, induce_from_ideal_classes(group, p, tags), [tags[closure(p, el.support())] for el in els]


def assert_dual_is_oracle(group, dual, part):
    ids, sums = lattice_dual(group, part)
    assert np.array_equal(dual.class_ids, ids)
    assert [tuple(as_int(v) for v in label) for label in dual.labels] == sums


class TestTwinClassEngine:
    """The twin-class engine against the Yates transform over 2^n masks
    and, on small groups, against the element-by-element dual."""

    @settings(max_examples=80, deadline=None)
    @given(twin_instances())
    def test_matches_lattice_oracle(self, instance):
        group, gamma, keys = instance
        want = Partition.from_keys(keys)
        assert np.array_equal(gamma.class_ids, want.class_ids) and gamma.labels == want.labels
        ctx = DualityContext(group)
        lam = ctx.left_dual(gamma)
        bidual = ctx.right_dual(lam)
        assert_dual_is_oracle(group, lam, gamma)
        assert_dual_is_oracle(group, bidual, lam)
        if group.order <= 64:
            assert lam == brute_force_left_dual(group, gamma)
        # comparisons on states, on the common refinement of two block
        # structures, equal comparisons over G
        hamming = induce_CO(group, pk_covering(1, group.n))
        for a, b in itertools.permutations([gamma, lam, bidual, hamming], 2):
            over_g = Partition(a.class_ids, host=group), Partition(b.class_ids, host=group)
            assert a.is_finer(b) == over_g[0].is_finer(over_g[1])
            assert (a == b) == (over_g[0] == over_g[1])

    def test_twin_blocks(self):
        # P(k): the coordinates of one order; a poset: the transpositions of
        # Aut(P, omega); a member list: the swaps that fix it; ideal
        # classes: none
        group = build_group_product([[2], [3], [2], [3], [2]])
        assert induce_CO(group, pk_covering(2, 5)).blocks == ((0, 2, 4), (1, 3))
        bottom = validate_and_close(5, [(0, v) for v in range(1, 5)])
        gamma = induce_Q(group, bottom, WeightFunction.constant(5))
        assert gamma.blocks == ((0,), (1, 3), (2, 4)) and len(gamma.state_ids) == 2 * 3 * 3
        weights = WeightFunction(tuple(map(Fraction, (1, 1, 1, 1, 2))))
        assert induce_Q(group, bottom, weights).blocks == ((0,), (1, 3), (2,), (4,))
        cover = covering_from_members(5, [[0, 2], [2, 4], [0, 4], [1], [3]])
        assert induce_CO(group, cover).blocks == ((0, 2, 4), (1, 3))
        cover = covering_from_members(5, [[0, 2], [2, 4], [1], [3]])
        assert induce_CO(group, cover).blocks == ((0, 4), (1, 3), (2,))
        tags = {i: len(i) for i in ideals(antichain(5))}
        assert induce_from_ideal_classes(group, antichain(5), tags).blocks == tuple((i,) for i in range(5))

    @pytest.mark.parametrize("q", [2, 3])
    def test_pk_class_counts_match_support_profiles(self, q):
        # the prefix sums of one alphabet's support profiles are a second
        # engine; above |G| = 2^62 (n >= 63 for q = 2, n >= 40 for q = 3)
        # the transform runs on Python ints
        for n in range(1, 65):
            group = build_group_product([[q]] * n)
            prefix = co_profile_prefix_sums(ku_value_table(n, q))
            for k in range(1, n + 1) if n <= 32 else sorted({1, 2, 3, n // 2, n - 1, n}):
                rep = reflexivity_check(DualityContext(group), induce_CO(group, pk_covering(k, n)))
                want = co_reflexivity_bruteforce(q, n, k, prefix)
                assert (rep["gamma_classes"], rep["dual_classes"]) == (want["co_classes"], want["dual_classes"])

    def test_not_bound_by_the_krawtchouk_cap(self):
        # the engine reads ku_rows, not the capped ku_value_table: its one
        # block of 12 twins answers under a cap of 8 as at the default cap
        group = build_group_product([[2]] * 12)
        duals = []
        for config in (RunConfig(), RunConfig(krawtchouk_cap_n=8)):
            gamma = induce_CO(group, pk_covering(3, 12), config)
            duals.append(DualityContext(group, config).left_dual(gamma))
        assert duals[1].num_classes == 13
        assert duals[0].export() == duals[1].export()


class TestPairingTable:
    def test_entries_are_pairing_exponents(self):
        # the groups of the dual-dense benchmark, mixed coordinates among
        # them, a prime power against its square, and m = 294 past uint8:
        # every entry, and the refusal one cell below |G|^2
        for spec in (
            [[48]],
            [[4], [12]],
            [[2], [4], [2, 3]],
            [[60]],
            [[2, 3], [2, 5]],
            [[2], [6], [10]],
            [[120]],
            [[2], [2], [4], [3, 5]],
            [[4], [2, 3], [5]],
            [[7], [49]],
            [[6], [49, 2]],
        ):
            group = build_group_product(spec)
            cells = group.order**2
            table = DualityContext(group, RunConfig(pair_work_cap=cells)).exponents
            els = enumerate_elements(group)
            want = [[pairing_exponent(a, b) for b in els] for a in els]
            # the narrowest dtype that holds 2m - 2
            assert table.dtype == (np.uint8 if group.exponent <= 128 else np.uint16)
            assert np.array_equal(table, want)
            with pytest.raises(
                BudgetError,
                match=rf"^\|G\|\*\|H\| pairing table cells = {cells} exceeds pair_work_cap = {cells - 1}$",
            ):
                DualityContext(group, RunConfig(pair_work_cap=cells - 1)).exponents

    def test_enumeration_cap_checked(self):
        # the table lists H, so it is refused past enumeration_cap, with
        # the message of every listing of H
        group = build_group_product([[4], [12]])
        with pytest.raises(BudgetError, match=r"^\|H\| to materialize = 48 exceeds enumeration_cap = 47$"):
            DualityContext(group, RunConfig(enumeration_cap=47)).exponents
        assert DualityContext(group, RunConfig(enumeration_cap=48)).exponents.shape == (48, 48)

    @pytest.mark.parametrize(
        "spec, previous",
        [([[4096]], 0), ([[2], [2048]], 2048**2 * 2), ([[2048], [2]], 2 * 2 * 2)],
    )
    def test_build_holds_table_previous_and_one_block(self, spec, previous):
        # one large cyclic factor: no d x d int64 table is made, only the
        # term rows of at most two blocks of about 2^18 int64 cells (2 MiB
        # each) beside the new table and the previous one
        import tracemalloc

        group = build_group_product(spec)
        ctx = DualityContext(group)
        group.factor_orders, group.exponent  # cached before the trace
        tracemalloc.start()
        try:
            table = ctx.exponents
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.nbytes == 4096**2 * 2
        assert peak <= table.nbytes + previous + (5 << 20)
        els = enumerate_elements(group)
        for a in (1, 2, len(els) - 1):
            assert table[a].tolist() == [pairing_exponent(els[a], b) for b in els]


class TestScaleAndBudgets:
    def test_pairing_table_cap_named_and_checked_first(self, monkeypatch):
        from dualpart.groups import GroupProduct

        def no_residues(*args, **kwargs):
            raise AssertionError("residues built before the cap check")

        group = build_group_product([[2]] * 6)
        ctx = DualityContext(group, RunConfig(pair_work_cap=1000))
        # the check reads |G|, cached here; the build reads the factor orders
        assert group.order == 64
        monkeypatch.setattr(GroupProduct, "factor_orders", property(no_residues))
        monkeypatch.setattr(GroupProduct, "residue_matrix", no_residues)
        with pytest.raises(BudgetError, match=r"= 4096 exceeds pair_work_cap = 1000$"):
            ctx.exponents

    def test_large_modulus_coordinates_by_orthogonality(self):
        # Z/40000 with one class: the row of 0 sums 40000 trivial characters,
        # the row of 1 every 40000-th root of unity, which sum to 0
        group = build_group_product([[40000]])
        ctx = DualityContext(group)
        rows = np.stack([np.zeros(40000, dtype=np.int32), np.arange(40000, dtype=np.int32)])
        coords = ctx._coords(rows, Partition(np.zeros(40000, dtype=np.int64), host=group))
        want = np.zeros((2, euler_phi_degree(40000)), dtype=np.int64)
        want[0, 0] = 40000
        assert np.array_equal(coords, want)
        assert ctx.left_dual(induce_CO(group, pk_covering(1, 1))).num_classes == 2

    def test_lattice_cap_named(self):
        # (Z/2)^3 x (Z/3)^2 with P(2): 4 * 3 states, 4 classes and
        # sum(n_b + 1) = 7 take 336 transform cells
        group = build_group_product([[2]] * 3 + [[3]] * 2)
        gamma = induce_CO(group, pk_covering(2, 5))
        with pytest.raises(
            BudgetError,
            match=r"^states \* k \* sum\(n_b \+ 1\) transform cells = 336 exceeds pair_work_cap = 335$",
        ):
            DualityContext(group, RunConfig(pair_work_cap=335)).left_dual(gamma)
        assert DualityContext(group, RunConfig(pair_work_cap=336)).left_dual(gamma).num_classes == 11

    def test_lattice_label_cap_named(self):
        # (Z/7)^3 Hamming: 4 states * 4 classes * 4 = 64 transform cells,
        # but 4 dual classes of 4 classes pad to 4 * 4 * deg(Phi_7) = 96
        # coordinate cells
        group = build_group_product([[7]] * 3)
        gamma = induce_CO(group, pk_covering(1, 3))
        with pytest.raises(
            BudgetError,
            match=r"^rows \* k \* deg\(Phi_m\) coordinate cells = 96 exceeds pair_work_cap = 95$",
        ):
            DualityContext(group, RunConfig(pair_work_cap=95)).left_dual(gamma)
        assert DualityContext(group, RunConfig(pair_work_cap=96)).left_dual(gamma).num_classes == 4

    def test_coordinate_cap_named(self):
        # Z/48 with 24 classes {a, a + 24}: a 48 x 48 table, 48 * 24
        # evaluation cells and 48 * deg(Phi_48) unit-gather cells pass a cap
        # of 9,599 cells, but the coordinates of one pairing row per dual
        # class take 25 * 24 * deg(Phi_48) = 9,600 cells
        group = build_group_product([[48]])
        gamma = Partition(np.arange(48) % 24, host=group)
        ctx = DualityContext(group, RunConfig(pair_work_cap=9_599))
        assert ctx.exponents.size == 2304
        with pytest.raises(
            BudgetError,
            match=r"^rows \* k \* deg\(Phi_m\) coordinate cells = 9600 exceeds pair_work_cap = 9599$",
        ):
            ctx.left_dual(gamma)
        # the verdict folds no coordinate
        assert reflexivity_check(ctx, gamma, compute_bidual=True)["dual_classes"] == 25
        assert DualityContext(group, RunConfig(pair_work_cap=9_600)).left_dual(gamma).num_classes == 25
        # two classes take 3 * 2 * 16 = 96 cells
        ctx.left_dual(Partition(np.arange(48) % 2, host=group))

    def test_evaluation_caps_named(self):
        # Z/120 against a table built under the default budget: 120 * 60
        # evaluation cells, and 120 * deg(Phi_120) = 3,840 unit-gather
        # cells, each checked before it is allocated
        group = build_group_product([[120]])
        table = DualityContext(group).exponents
        wide, narrow = random_partition(group, 60, 0), random_partition(group, 2, 0)
        with pytest.raises(BudgetError, match=r"^\|G\| \* k evaluation cells = 7200 exceeds pair_work_cap = 7199$"):
            DualityContext(group, RunConfig(pair_work_cap=7199))._classes(table, wide)
        with pytest.raises(
            BudgetError, match=r"^\|G\| \* phi\(m\) unit-gather cells = 3840 exceeds pair_work_cap = 3839$"
        ):
            DualityContext(group, RunConfig(pair_work_cap=3839))._classes(table, narrow)
        classes = DualityContext(group, RunConfig(pair_work_cap=3840))._classes(table, narrow)
        assert classes == Partition(eager_dual(DualityContext(group), table, narrow)[0])

    def test_induce_cap_named(self):
        # inducing and dualizing list no element of G: the cap binds where
        # the class ids are pulled back to G
        group = build_group_product([[2]] * 6)
        tight = RunConfig(enumeration_cap=63)
        gamma = induce_CO(group, pk_covering(1, 6), tight)
        lam = DualityContext(group, tight).left_dual(gamma)
        assert gamma.num_classes == lam.num_classes == 7
        for part in (gamma, lam):
            with pytest.raises(BudgetError, match=r"^\|G\| to list a partition = 64 exceeds enumeration_cap = 63$"):
                part.class_ids
        assert len(induce_CO(group, pk_covering(1, 6), RunConfig(enumeration_cap=64)).class_ids) == 64


class TestPartitionIds:
    @pytest.mark.parametrize("ids", [[0, 2], [-1, 0], [1, 1], [0, 1 << 40]])
    def test_rejects_gaps_and_negatives(self, ids):
        with pytest.raises(InputError):
            Partition(ids)
