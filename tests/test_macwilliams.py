import collections
import itertools
import random

import numpy as np
import pytest

import dualpart.macwilliams as macwilliams
from dualpart.config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from dualpart.macwilliams import (
    LinearCode,
    PrimeFieldSpace,
    co_vector_space_partition,
    conjecture21_report,
    macwilliams_admits,
    macwilliams_verify,
    mep_witness_search,
    parse_code_file,
    rref_mod_p,
)
from dualpart.metrics import pk_covering
from dualpart.partitions import DualityContext, Partition, induce_CO
from oracles import (
    GroupElement,
    admits_by_codes,
    annihilator,
    binary_cols_to_matrix,
    codeword_indices_product,
    inv_enumerate,
    inv_enumerate_binary,
    is_f_invariant,
    onedim_by_codes,
    orbit_partition,
    scaled_exponents,
    subspace_rref_bases,
    _vector_indices,
)


def hamming(space):
    return induce_CO(space.group, pk_covering(1, len(space.block_sizes)))


class TestLinearCode:
    def test_rref_canonical(self):
        a = rref_mod_p([[1, 1, 0], [0, 1, 1]], 2)
        b = rref_mod_p([[1, 0, 1], [0, 1, 1]], 2)
        assert a == b == ((1, 0, 1), (0, 1, 1))

    def test_dims_sum(self):
        space = PrimeFieldSpace(3, (1, 1, 1, 1))
        rng = random.Random(1)
        for _ in range(10):
            rows = [[rng.randrange(3) for _ in range(4)] for _ in range(2)]
            c = LinearCode.from_rows(space, rows)
            assert c.dim + c.dual().dim == 4

    def test_repetition_dual_is_even_weight(self):
        space = PrimeFieldSpace(2, (1,) * 5)
        c = LinearCode.from_rows(space, [[1] * 5])
        d = c.dual()
        assert d.dim == 4
        for idx in d.codeword_indices():
            assert bin(int(idx)).count("1") % 2 == 0

    def test_bidual(self):
        space = PrimeFieldSpace(2, (1,) * 6)
        rng = random.Random(3)
        for _ in range(10):
            rows = [[rng.randrange(2) for _ in range(6)] for _ in range(3)]
            c = LinearCode.from_rows(space, rows)
            assert c.dual().dual() == c

    def test_zero_code_dual_is_everything(self):
        space = PrimeFieldSpace(2, (1, 1))
        c = LinearCode.from_rows(space, [])
        assert c.dual().dim == 2
        assert list(c.codeword_indices()) == [0]

    @pytest.mark.parametrize("p,blocks", [(2, (1,) * 7), (3, (1, 2, 1)), (5, (2, 1)), (7, (1, 1, 1)), (17, (1, 1))])
    def test_codewords_match_product_oracle(self, p, blocks):
        space = PrimeFieldSpace(p, blocks)
        rng = random.Random(p)
        for dim in range(space.dim + 1):
            rows = [[rng.randrange(p) for _ in range(space.dim)] for _ in range(dim)]
            code = LinearCode.from_rows(space, rows)
            got = code.codeword_indices()
            assert got.dtype == np.int64 and len(got) == code.size
            assert np.array_equal(got, codeword_indices_product(code)), (p, rows)

    @pytest.mark.parametrize("p,length,dim", [(2, 18, 16), (3, 11, 10), (7, 6, 6)])
    def test_codewords_across_blocks(self, p, length, dim):
        # more words than one block of 2^14: 4 blocks of 2^14, 9 of 3^8 and
        # 49 of 7^4
        space = PrimeFieldSpace(p, (1,) * length)
        rng = random.Random(length)
        # [I | R] with its columns shuffled: full rank, pivots spread out
        cols = rng.sample(range(length), length)
        rows = [[int(i == j) if j < dim else rng.randrange(p) for j in cols] for i in range(dim)]
        code = LinearCode.from_rows(space, rows)
        assert code.dim == dim
        assert np.array_equal(code.codeword_indices(), codeword_indices_product(code))

    def test_codeword_count_capped_before_work(self, monkeypatch):
        # the 2^7 words of the even-weight code of length 8 against a cap of
        # 2^6: refused before any array, however the words are asked for
        space = PrimeFieldSpace(2, (1,) * 8)
        dual = LinearCode.from_rows(space, [[1] * 8]).dual()
        gamma = hamming(space)
        config = RunConfig(enumeration_cap=1 << 6)
        ctx = DualityContext(space.group, config)

        def refuse(*args, **kwargs):
            raise AssertionError("words built")

        monkeypatch.setattr(macwilliams.np, "arange", refuse)
        calls = (
            lambda: dual.codeword_indices(config),
            lambda: macwilliams_verify(dual, gamma, gamma, ctx),
        )
        for call in calls:
            with pytest.raises(BudgetError, match="p\\^dim codewords = 128 exceeds enumeration_cap = 64"):
                call()

    def test_dual_matches_character_annihilator(self):
        # the bilinear null space equals the character-sum annihilator
        space = PrimeFieldSpace(3, (1, 2))
        rng = random.Random(9)
        for _ in range(8):
            rows = [[rng.randrange(3) for _ in range(3)] for _ in range(2)]
            c = LinearCode.from_rows(space, rows)
            ann = annihilator(space.group, c.codeword_indices())
            assert list(ann) == list(c.dual().codeword_indices())


class TestDistributionIdentity:
    def test_distribution_counts(self):
        space = PrimeFieldSpace(2, (1,) * 5)
        c = LinearCode.from_rows(space, [[1] * 5])
        gamma = hamming(space)
        counts = np.bincount(gamma.class_ids[c.codeword_indices()], minlength=gamma.num_classes)
        assert counts.tolist() == [1, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("seed", range(8))
    def test_random_codes_verify(self, seed):
        rng = random.Random(seed)
        space = PrimeFieldSpace(2, (1,) * 6)
        rows = [[rng.randrange(2) for _ in range(6)] for _ in range(rng.randrange(4))]
        code = LinearCode.from_rows(space, rows)
        gamma = hamming(space)
        ctx = DualityContext(space.group)
        assert macwilliams_verify(code, ctx.left_dual(gamma), gamma, ctx)["holds"]

    def test_f3_covering_partition(self):
        space = PrimeFieldSpace(3, (1,) * 4)
        gamma = co_vector_space_partition(space, 2)
        ctx = DualityContext(space.group)
        code = LinearCode.from_rows(space, [[1, 2, 0, 1]])
        assert macwilliams_verify(code, ctx.left_dual(gamma), gamma, ctx)["holds"]

    def test_context_of_another_space_rejected(self):
        space = PrimeFieldSpace(2, (1,) * 4)
        gamma = hamming(space)
        ctx = DualityContext(PrimeFieldSpace(2, (1,) * 3).group)
        code = LinearCode.from_rows(space, [[1, 1, 0, 0]])
        with pytest.raises(InputError):
            macwilliams_verify(code, gamma, gamma, ctx)


class TestTheoremEquivalences:
    def test_pami_hamming_true(self):
        space = PrimeFieldSpace(2, (1,) * 5)
        ham = hamming(space)
        rep = onedim_by_codes(space, ham, ham)
        assert rep["one_dim_statement"] and rep["finer_statement"] and rep["agree"]

    def test_pami_co3_false_in_tandem_with_reflexivity(self):
        space = PrimeFieldSpace(2, (1,) * 5)
        co3 = co_vector_space_partition(space, 3)
        rep = onedim_by_codes(space, co3, co3)
        assert not rep["one_dim_statement"] and not rep["finer_statement"]
        assert rep["agree"] and rep["witness"] is not None

    def test_pami_finest_lambda_true(self):
        space = PrimeFieldSpace(2, (1, 1, 1))
        singles = Partition(np.arange(space.order), host=space.group)
        rep = onedim_by_codes(space, singles, hamming(space))
        assert rep["one_dim_statement"] and rep["finer_statement"]

    def test_admits_matches_onedim_statement(self):
        space = PrimeFieldSpace(2, (1,) * 4)
        for gamma in [hamming(space), co_vector_space_partition(space, 3)]:
            lam = DualityContext(space.group).left_dual(gamma)
            full = macwilliams_admits(space, gamma, gamma)
            one = onedim_by_codes(space, gamma, gamma)
            assert full["admits"] == one["one_dim_statement"]
            good = macwilliams_admits(space, lam, gamma)
            assert good["admits"]

    def test_subspace_enumeration_counts(self):
        # Gaussian binomial totals
        assert sum(1 for _ in subspace_rref_bases(2, 4)) == 67
        assert sum(1 for _ in subspace_rref_bases(3, 3)) == 28


def _random_invariant_partition(space, rng, classes):
    """A random F-invariant partition with {0} a class: one class per line,
    from {1, ..., classes}."""
    p = space.p
    v = space.all_vectors()
    lead = v[np.arange(len(v)), (v != 0).argmax(axis=1)]
    inverse = np.array([pow(int(x), p - 2, p) for x in lead], dtype=np.int64)
    place = p ** np.arange(space.dim - 1, -1, -1, dtype=np.int64)
    line = ((v * inverse[:, None] % p) @ place).tolist()
    key = [0] + [rng.randrange(1, classes + 1) for _ in range(space.order - 1)]
    return Partition.from_keys([key[i] for i in line], host=space.group)


def _engine_cases(space, seed):
    """(lam, gamma) pairs: two random ones, and lam = l(gamma)."""
    rng = random.Random(seed)
    gamma = _random_invariant_partition(space, rng, rng.randrange(2, 6))
    other = _random_invariant_partition(space, rng, rng.randrange(2, 6))
    return [(other, gamma), (gamma, gamma), (DualityContext(space.group).left_dual(gamma), gamma)]


ENGINE_SPACES = (
    [(2, (1,) * n) for n in range(2, 7)]
    + [(3, (1,) * n) for n in range(2, 5)]
    + [(5, (1,) * n) for n in range(2, 4)]
    + [(p, blocks) for p in (2, 3, 5) for blocks in ((2, 2), (1, 2))]
)


class TestAllCodesEngine:
    @pytest.mark.parametrize("p,blocks", ENGINE_SPACES, ids=[f"F{p}-{b}" for p, b in ENGINE_SPACES])
    def test_matches_code_by_code_oracle(self, p, blocks):
        space = PrimeFieldSpace(p, blocks)
        witnesses = []
        for seed in range(2):
            cases = _engine_cases(space, f"{p} {blocks} {seed}")
            for lam, gamma in cases:
                admits = macwilliams_admits(space, lam, gamma)
                assert admits == admits_by_codes(space, lam, gamma)
                witnesses.append(admits["witness"])
            assert macwilliams_admits(space, *cases[2])["admits"]
        if space.order >= 16:
            assert any(w is not None for w in witnesses)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 5), (2, 7), (3, 4), (5, 3), (7, 2)])
    def test_blocks_list_the_oracle_bases_in_order(self, p, n):
        space = PrimeFieldSpace(p, (1,) * n)
        listed = [tuple(map(tuple, basis.tolist())) for block in macwilliams._subspace_blocks(space) for basis in block]
        oracle = list(subspace_rref_bases(p, n))
        assert listed == oracle
        assert macwilliams._subspace_count(p, n) == len(oracle)

    def test_subspace_counts(self):
        assert macwilliams._subspace_count(2, 8) == 417_199
        assert macwilliams._subspace_count(2, 13) == 37_558_989_808_526

    @pytest.mark.parametrize("p,blocks", [(2, (1,) * 5), (3, (1,) * 3), (5, (1, 2))])
    def test_one_code_per_block(self, monkeypatch, p, blocks):
        # the seen distributions carry across blocks, and the first clash
        # of a block is the first clash overall
        space = PrimeFieldSpace(p, blocks)
        cases = _engine_cases(space, f"one-per-block {p}")
        want = [macwilliams_admits(space, *c) for c in cases]
        assert want[0]["witness"] is not None and want[2]["admits"]
        monkeypatch.setattr(macwilliams, "_CODE_BLOCK", 1)
        assert all(macwilliams._codes_per_block(space, d) == 1 for d in range(space.dim + 1))
        got = [macwilliams_admits(space, *c) for c in cases]
        assert got == want

    def test_f2_13_refused_by_the_subspace_count(self, monkeypatch):
        # |V|^2 = 2^26 passes pair_work_cap; the 3.8e13 subspaces do not
        space = PrimeFieldSpace(2, (1,) * 13)
        part = Partition(np.arange(space.order), host=space.group)

        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(PrimeFieldSpace, "all_vectors", refuse)
        monkeypatch.setattr(macwilliams, "_zero_is_singleton", refuse)
        with pytest.raises(BudgetError, match="subspaces of F_2\\^13 = 37558989808526 exceeds enumeration_cap"):
            macwilliams_admits(space, part, part)

    def test_orthogonality_table_capped(self):
        space = PrimeFieldSpace(2, (1,) * 4)
        ham = hamming(space)
        with pytest.raises(BudgetError, match="\\|V\\|\\^2 orthogonality cells = 256 exceeds pair_work_cap = 255"):
            macwilliams_admits(space, ham, ham, RunConfig(pair_work_cap=255))

    def test_addition_table_capped(self):
        # the |V| x |V| index table of x + y that the invariance search
        # reads is checked before it is built
        space = PrimeFieldSpace(2, (1,) * 5)
        delta = co_vector_space_partition(space, 3)
        with pytest.raises(BudgetError, match="^\\|V\\|\\^2 addition-table cells = 1024 exceeds pair_work_cap = 1023$"):
            macwilliams._invariance_orbits(space, delta, RunConfig(pair_work_cap=1023))

    def test_f2_8_within_the_subspace_count(self):
        space = PrimeFieldSpace(2, (1,) * 8)
        lam, gamma = _engine_cases(space, "f2-8")[0]
        config = RunConfig(enumeration_cap=417_199)
        assert macwilliams_admits(space, lam, gamma, config)["witness"] is not None
        with pytest.raises(BudgetError, match="enumeration_cap = 417198"):
            macwilliams_admits(space, lam, gamma, RunConfig(enumeration_cap=417_198))


class TestInvarianceSubgroup:
    def test_hamming_f2_gives_permutations(self):
        space = PrimeFieldSpace(2, (1, 1, 1))
        maps = inv_enumerate(space, hamming(space))
        assert len(maps) == 6
        for m in maps:
            assert sorted(map(tuple, m.T.tolist())) == sorted(
                map(tuple, np.eye(3, dtype=int).tolist())
            )

    def test_hamming_f3_gives_monomials(self):
        space = PrimeFieldSpace(3, (1, 1))
        maps = inv_enumerate(space, hamming(space))
        assert len(maps) == 8  # 2 permutations x 2^2 sign choices

    def test_singleton_partition_only_identity(self):
        space = PrimeFieldSpace(2, (1, 1))
        singles = Partition(np.arange(4), host=space.group)
        maps = inv_enumerate(space, singles)
        assert len(maps) == 1
        assert np.array_equal(maps[0], np.eye(2, dtype=int))

    def test_group_closure(self):
        space = PrimeFieldSpace(2, (1, 1, 1))
        maps = inv_enumerate(space, hamming(space))
        keys = {m.tobytes() for m in maps}
        for a in maps:
            for b in maps:
                assert ((a @ b) % 2).astype(np.int64).tobytes() in keys

    def test_order_divides_gl(self):
        space = PrimeFieldSpace(2, (1,) * 4)
        gl4 = (2**4 - 1) * (2**4 - 2) * (2**4 - 4) * (2**4 - 8)
        maps = inv_enumerate(space, co_vector_space_partition(space, 3))
        assert gl4 % len(maps) == 0

    @pytest.mark.parametrize("n,k", [(4, 1), (4, 2), (4, 3), (4, 4), (5, 1), (5, 2), (5, 3)])
    def test_binary_matches_bitmask_oracle(self, n, k):
        # k = 1 is the Hamming partition
        space = PrimeFieldSpace(2, (1,) * n)
        delta = co_vector_space_partition(space, k)
        maps = [tuple(map(tuple, m.tolist())) for m in inv_enumerate(space, delta)]
        oracle = {
            tuple(map(tuple, binary_cols_to_matrix(cols, n).tolist()))
            for cols in inv_enumerate_binary(delta.class_ids.tolist(), n)
        }
        assert len(set(maps)) == len(maps)
        assert set(maps) == oracle

    def test_size_guard(self):
        space = PrimeFieldSpace(2, (1,) * 6)
        with pytest.raises(BudgetError):
            mep_witness_search(space, hamming(space))


class TestOrbitsAndWitness:
    def test_identity_gives_singletons(self):
        space = PrimeFieldSpace(2, (1, 1))
        orb = orbit_partition(space, [np.eye(2, dtype=np.int64)])
        assert orb.num_classes == 4

    def test_permutations_give_hamming(self):
        space = PrimeFieldSpace(2, (1, 1, 1))
        perms = [
            np.eye(3, dtype=np.int64)[:, list(p)]
            for p in itertools.permutations(range(3))
        ]
        orb = orbit_partition(space, perms)
        assert orb == hamming(space)

    @pytest.mark.parametrize("p,n,k", [(2, 5, 3), (3, 3, 2), (2, 4, 2)])
    def test_numbering_ignores_map_order(self, p, n, k):
        space = PrimeFieldSpace(p, (1,) * n)
        maps = inv_enumerate(space, co_vector_space_partition(space, k))
        orb = orbit_partition(space, maps)
        shuffled = list(maps)
        random.Random(7).shuffle(shuffled)
        for order in (maps[::-1], shuffled):
            assert np.array_equal(orbit_partition(space, order).class_ids, orb.class_ids)
        # classes numbered in the order of their least elements
        _, least = np.unique(orb.class_ids, return_index=True)
        assert np.all(np.diff(least) > 0)

    def test_hamming_f2_4_no_witness(self):
        space = PrimeFieldSpace(2, (1,) * 4)
        res = mep_witness_search(space, hamming(space))
        assert res["witness"] is None

    def test_co3_f2_5_witness_exists(self):
        space = PrimeFieldSpace(2, (1,) * 5)
        delta = co_vector_space_partition(space, 3)
        res = mep_witness_search(space, delta)
        w = res["witness"]
        assert w is not None
        # the pair shares a covering-weight class but lies in distinct orbits
        a = GroupElement(space.group, tuple(w["alpha"])).index
        b = GroupElement(space.group, tuple(w["beta"])).index
        assert delta.class_ids[a] == delta.class_ids[b]
        assert res["inv_order"] > 0


def _index_perm(space, mat):
    """The index permutation of the linear map with matrix ``mat``."""
    v = space.all_vectors()
    place = space.p ** np.arange(space.dim - 1, -1, -1)
    return ((v @ mat.T) % space.p @ place).tolist()


def _random_partition(space, rng, kind):
    """Random labels on the space (kind 0), or on the orbits of a random
    coordinate permutation (kind 1), or of it and the scalars (kind 2): the
    last two have nontrivial invariance groups, the first two are mostly
    not F-invariant."""
    labels = [rng.randrange(3) for _ in range(space.order)]
    if kind == 0:
        return Partition.from_keys(labels, host=space.group)
    n = space.dim
    perms = [_index_perm(space, np.eye(n, dtype=np.int64)[:, rng.sample(range(n), n)])]
    if kind == 2:
        perms += [_index_perm(space, c * np.eye(n, dtype=np.int64)) for c in range(2, space.p)]
    keys = [None] * space.order
    for x in range(space.order):
        if keys[x] is None:
            orbit, stack = {x}, [x]
            while stack:
                y = stack.pop()
                for g in perms:
                    if g[y] not in orbit:
                        orbit.add(g[y])
                        stack.append(g[y])
            for y in orbit:
                keys[y] = labels[x]
    return Partition.from_keys(keys, host=space.group)


RANDOM_SPACES = [PrimeFieldSpace(2, (1,) * 4), PrimeFieldSpace(2, (1,) * 5),
                 PrimeFieldSpace(3, (1,) * 2), PrimeFieldSpace(3, (1,) * 3)]
RANDOM_CASES = [
    (space, _random_partition(space, random.Random(seed), seed % 3))
    for seed in range(6)
    for space in RANDOM_SPACES
]


class TestStabilizerChain:
    """The chain's order and orbits against the listed group, and the
    colour refinement it searches on against that group."""

    @staticmethod
    def check(space, delta):
        order, orb = macwilliams._invariance_orbits(space, delta)
        maps = inv_enumerate(space, delta)
        assert order == len(maps)
        assert np.array_equal(orb.class_ids, orbit_partition(space, maps).class_ids)
        TestStabilizerChain.check_refinement(space, delta, maps)
        return order

    @staticmethod
    def check_refinement(space, delta, maps):
        """delta' refines delta, one more round counted here splits none of
        its classes, and every map of Inv(delta) preserves every class."""
        v = space.all_vectors()
        add = _vector_indices(space, v[:, None, :] + v[None, :, :])
        assert np.array_equal(macwilliams._addition(space, DEFAULT_CONFIG), add)
        refined = macwilliams._refine(delta.class_ids, add)
        assert Partition(refined, host=space.group).is_finer(delta)
        cls, pairs = refined.tolist(), add.tolist()
        keys = {
            (cls[x], tuple(sorted(collections.Counter((cls[y], cls[pairs[x][y]]) for y in range(space.order)).items())))
            for x in range(space.order)
        }
        assert len(keys) == max(cls) + 1
        for mat in maps:
            assert np.array_equal(refined[_index_perm(space, mat)], refined)

    @pytest.mark.parametrize(
        "p,n,k",
        [(2, n, k) for n in range(1, 5) for k in range(1, n + 1)]
        + [(2, 5, k) for k in (1, 2, 3)]
        + [(3, n, k) for n in range(1, 4) for k in range(1, n + 1)],
    )
    def test_covering(self, p, n, k):
        space = PrimeFieldSpace(p, (1,) * n)
        self.check(space, co_vector_space_partition(space, k))

    @pytest.mark.parametrize(
        "p,blocks", [(2, (2, 1)), (2, (2, 2)), (2, (3, 2)), (2, (1, 4)), (3, (2, 1)), (3, (3,))]
    )
    def test_hamming_with_blocks(self, p, blocks):
        space = PrimeFieldSpace(p, blocks)
        self.check(space, hamming(space))

    @pytest.mark.parametrize("p,n", [(2, 3), (2, 5), (3, 2), (3, 3)])
    def test_singletons_trivial_group(self, p, n):
        space = PrimeFieldSpace(p, (1,) * n)
        singles = Partition(np.arange(space.order), host=space.group)
        assert self.check(space, singles) == 1

    @pytest.mark.parametrize("p,n,gl", [(2, 2, 6), (2, 3, 168), (3, 2, 48)])
    def test_one_class_full_gl(self, p, n, gl):
        # every map preserves the one class, so a singular column must be
        # refused by the span checks, not by a class violation
        space = PrimeFieldSpace(p, (1,) * n)
        assert self.check(space, Partition(np.zeros(space.order, dtype=np.int64))) == gl

    @pytest.mark.parametrize("case", range(len(RANDOM_CASES)))
    def test_random(self, case):
        self.check(*RANDOM_CASES[case])

    def test_random_cases_vary(self):
        orders = [macwilliams._invariance_orbits(*c)[0] for c in RANDOM_CASES]
        assert min(orders) == 1 and max(orders) > 2
        f_invariant = {is_f_invariant(s, d) for s, d in RANDOM_CASES if s.p == 3}
        assert f_invariant == {False, True}


class TestConjectureReports:
    def test_253_refuted_with_witness(self):
        rep = conjecture21_report(2, 5, 3)
        assert rep["refuted"] and "explicit-witness" in rep["tiers"]

    def test_332_refuted(self):
        rep = conjecture21_report(3, 3, 2)
        assert rep["refuted"]
        assert rep["criteria"]["criterion"] == "hamming-collapse-n-equiv-1-mod-k"

    def test_243_open(self):
        rep = conjecture21_report(2, 4, 3)
        assert not rep["refuted"]
        assert rep["evidence"] == (
            "reflexive; every class is one orbit of the invariance group, "
            "so no one-dimensional witness exists; instance open"
        )

    @pytest.mark.parametrize("q,n,k", [(2, 6, 1), (5, 2, 1)])
    def test_open_without_search(self, q, n, k):
        rep = conjecture21_report(q, n, k)
        assert not rep["refuted"] and "witness_search" not in rep
        assert rep["evidence"] == "reflexive; no witness search outside GL(5,2) / GL(3,3); instance open"

    def test_rejects_composite(self):
        with pytest.raises(InputError):
            conjecture21_report(4, 5, 3)

    @pytest.mark.parametrize("q", [5, 1000003])
    def test_primality_tested_once(self, q, monkeypatch):
        # outside the witness branch (q = 2 or 3) no space is built, so
        # nothing tests q again
        calls = []
        is_prime = macwilliams._is_prime

        def counted(p):
            calls.append(p)
            return is_prime(p)

        monkeypatch.setattr(macwilliams, "_is_prime", counted)
        rep = conjecture21_report(q, 3, 2)
        assert calls == [q]
        assert "witness_search" not in rep


def test_is_prime_matches_sieve():
    limit = 10**4
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, 100):
        if sieve[d]:
            sieve[d * d :: d] = False
    assert [p for p in range(-3, limit) if macwilliams._is_prime(p)] == np.nonzero(sieve)[0].tolist()


def test_is_prime_large():
    assert macwilliams._is_prime(10**16 + 61)
    # psi_12 is a strong pseudoprime to every prime base up to 37, not to 41
    assert not macwilliams._is_prime(318_665_857_834_031_151_167_461)
    # exactness ends at psi_13, where q is refused
    with pytest.raises(InputError):
        macwilliams._is_prime(3_317_044_064_679_887_385_961_981)


class TestCharacterIndependence:
    def test_dual_partitions_agree_for_chi_squared(self):
        space = PrimeFieldSpace(3, (1, 1, 1))
        ctx = DualityContext(space.group)
        for gamma in [hamming(space), co_vector_space_partition(space, 2)]:
            d1 = ctx._dual(ctx.exponents, gamma)
            d2 = ctx._dual(scaled_exponents(ctx, 2), gamma)
            assert d1 == d2 == ctx.left_dual(gamma)


class TestCodeFiles:
    def test_roundtrip(self):
        text = "2 5 1 1 1 1 1\n1 1 1 1 1\n0 1 0 1 0\n"
        code = parse_code_file(text)
        assert code.space.p == 2 and code.dim == 2

    def test_block_structure(self):
        code = parse_code_file("3 3 1 2\n1 0 2\n")
        assert code.space.block_sizes == (1, 2)

    @pytest.mark.parametrize(
        "text",
        ["", "2 3\n", "2 3 1 1\n1 0 1\n", "2 2 1 1\n1 0 1\n", "2 2 1 1\nx y\n"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(InputError):
            parse_code_file(text)
