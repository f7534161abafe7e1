"""End-to-end acceptance suite.

Each test covers one numbered criterion and is independent of the others;
run with -v to get one pass/fail line per criterion.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from dualpart.config import RunConfig
from dualpart.groups import build_group_product
from dualpart.krawtchouk import (
    co_nonreflexivity_verdict,
    ku_build,
    ku_roots,
    ku_value_table,
)
from dualpart.macwilliams import (
    LinearCode,
    PrimeFieldSpace,
    co_vector_space_partition,
    conjecture21_report,
    macwilliams_admits,
    macwilliams_verify,
    mep_witness_search,
)
from dualpart.metrics import Covering, WeightFunction, covering_from_members, pk_covering
from dualpart.partitions import (
    DualityContext,
    Partition,
    co_reflexivity_bruteforce,
    induce_CO,
    induce_Q,
    krawtchouk_matrix,
    macwilliams_identity_holds,
    theorem32_check,
)
from dualpart.posets import automorphism_group, udp_check, validate_and_close
from oracles import (
    annihilator,
    character_sums,
    co_support_signatures,
    element_from_index,
    genfun_eval,
    members,
    onedim_by_codes,
    scaled_exponents,
)
from paper import ku_eval, lemma415_convergence, theorem41_check


GROUP_SPECS = [
    [[2]],
    [[3]],
    [[2], [2]],
    [[2], [3]],
    [[4], [2]],
    [[5], [5]],
    [[2], [2], [2]],
    [[3], [3], [3]],
    [[2], [4], [8]],
    [[6], [6]],
    [[2], [3], [4]],
    [[7], [2], [2]],
    [[2], [2], [2], [2]],
    [[3], [9]],
    [[4], [4], [4]],
    [[2], [2], [3], [3]],
    [[8], [8], [8]],
    [[5], [5], [5], [5]],
    [[2], [2], [2], [2], [2], [2], [2], [2], [2], [2]],
    [[2], [4], [8], [4], [4], [4]],
]


@lru_cache(maxsize=None)
def _group(i):
    return build_group_product(GROUP_SPECS[i])


@lru_cache(maxsize=None)
def _ctx(i):
    return DualityContext(_group(i))


def _random_partition(order, rng, zero_alone=False):
    ids = [rng.randrange(1, rng.randrange(2, max(3, order // 2 + 2)))
           for _ in range(order)]
    ids[0] = 0 if zero_alone else ids[0]
    return Partition.from_keys(ids)


def _random_subgroup(group, rng):
    members = {element_from_index(group, 0)}
    for _ in range(rng.randrange(1, 3)):
        g = element_from_index(group, rng.randrange(group.order))
        frontier = [a * g for a in members]
        while frontier:
            x = frontier.pop()
            if x not in members:
                members.add(x)
                frontier.extend(x * m for m in members)
                frontier.append(x * g)
    return sorted(m.index for m in members)


def test_criterion_01_duality_axioms():
    rng = random.Random(20240811)
    small = [i for i, spec in enumerate(GROUP_SPECS)
             if __import__("math").prod(d for c in spec for d in c) <= 256]
    # a few draws at the 2^9..2^12 end, the bulk on fast small groups
    schedule = [rng.choice(small) for _ in range(194)] + [16, 16, 17, 17, 18, 19]
    done = 0
    for i in schedule:
        group, ctx = _group(i), _ctx(i)
        gamma = _random_partition(group.order, rng)
        lam = ctx.left_dual(gamma)
        # the identity is always alone in its dual class
        zero_class = lam.class_ids[0]
        assert list(members(lam, zero_class)) == [0]
        assert gamma.num_classes <= lam.num_classes
        bidual = ctx.right_dual(lam)
        assert bidual.is_finer(gamma)
        reflexive = bidual == gamma
        assert reflexive == (gamma.num_classes == lam.num_classes)
        done += 1
    assert done == 200
    print("criterion 1 (duality axioms): PASS")


def test_criterion_02_distribution_identity():
    rng = random.Random(7)
    done = 0
    while done < 100:
        i = rng.randrange(len(GROUP_SPECS))
        group, ctx = _group(i), _ctx(i)
        n = group.n
        kind = rng.choice(["hamming", "poset", "covering"])
        if kind == "hamming":
            gamma = induce_CO(group, pk_covering(1, n))
        elif kind == "covering":
            gamma = induce_CO(group, pk_covering(rng.randrange(1, n + 1), n))
        else:
            rels = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.3]
            try:
                p = validate_and_close(n, rels)
            except Exception:
                continue
            w = WeightFunction(tuple(Fraction(rng.choice([1, 2]))
                                     for _ in range(n)))
            gamma = induce_Q(group, p, w)
        lam = ctx.left_dual(gamma)
        code = _random_subgroup(group, rng)
        assert macwilliams_identity_holds(ctx, code, annihilator(group, code), lam, gamma)
        done += 1
    print("criterion 2 (distribution identity): PASS")


def _negation(group):
    """Index of -x for every element index x."""
    return [element_from_index(group, x).inverse().index for x in range(group.order)]


def _split_first(part):
    """The partition finer than ``part`` that splits the first element of
    each class from the rest of it."""
    _, first = np.unique(part.class_ids, return_index=True)
    alone = np.zeros(part.host_size, dtype=np.int64)
    alone[first] = 1
    return Partition.from_keys(list(zip(part.class_ids.tolist(), alone.tolist())), host=part.host)


def test_criterion_02_krawtchouk_rows_are_lattice_labels():
    # each rho row equals the character sums of its lambda class's first
    # element, one pairing at a time, for lambda strictly finer than
    # l(Gamma), so rho is read through the class mapping; on both engines,
    # the lattice building no pairing table
    rng = random.Random(11)
    engines = set()
    for i, spec in enumerate(GROUP_SPECS):
        group = _group(i)
        if group.order > 256:
            continue
        ctx = DualityContext(group)
        n = group.n
        chain = validate_and_close(n, [(u, u + 1) for u in range(n - 1)])
        gammas = [induce_CO(group, pk_covering(k, n)) for k in range(1, n + 1)]
        gammas.append(induce_Q(group, chain, WeightFunction.constant(n)))
        # a random partition closed under negation, so x and -x share a
        # dual class; it carries no masks, so the pairwise engine runs
        neg = _negation(group)
        keys = [rng.randrange(3) for _ in range(group.order)]
        gammas.append(Partition.from_keys([min(keys[x], keys[neg[x]]) for x in range(group.order)], host=group))
        for gamma in gammas:
            ldual = ctx.left_dual(gamma)
            if ldual.num_classes == group.order:
                continue
            lam = _split_first(ldual)
            assert lam.num_classes > ldual.num_classes
            res = krawtchouk_matrix(ctx, lam, gamma)
            assert res.ok and len(res.rho) == lam.num_classes
            _, reps = np.unique(lam.class_ids, return_index=True)
            want = character_sums(group, reps.tolist(), gamma)
            assert [tuple(row) for row in res.rho] == want, spec
            engines.add("lattice" if gamma.blocks is not None else "pairwise")
            assert (ctx._table is None) == (gamma.blocks is not None), spec
    assert engines == {"lattice", "pairwise"}
    for p, n in ((2, 6), (3, 4), (5, 3)):
        space = PrimeFieldSpace(p, (1,) * n)
        code = LinearCode.from_rows(space, [[1] * n, [0, 1] + [0] * (n - 2)])
        for k in (1, 2):
            gamma = co_vector_space_partition(space, k)
            ctx = DualityContext(space.group)
            assert macwilliams_verify(code, ctx.left_dual(gamma), gamma, ctx)["holds"]
            assert ctx._table is None


def _compositions(n):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def test_criterion_03_weighted_poset_equivalence():
    checked = 0
    for n in range(1, 5):
        for comp in _compositions(n):
            # hierarchical posets up to isomorphism = ordered level sizes
            lvl = [b for b, size in enumerate(comp) for _ in range(size)]
            rels = [(u, v) for u in range(n) for v in range(n)
                    if lvl[u] < lvl[v]]
            p = validate_and_close(n, rels)
            for weights in itertools.product([1, 2], repeat=n):
                w = WeightFunction(tuple(Fraction(x) for x in weights))
                udp_ok, _ = udp_check(p, w.values, automorphism_group(p, w.values)[1])
                for orders in itertools.product([2, 3], repeat=n):
                    group = build_group_product([[q] for q in orders])
                    rep = theorem32_check(group, p, w, udp_ok)
                    assert rep["equivalent"], (comp, weights, orders, rep)
                    assert rep["lambda_finer_than_Q_dual"]
                    checked += 1
    assert checked > 0
    print(f"criterion 3 (weighted poset equivalence, {checked} cases): PASS")


def _antichain_covers(n):
    subsets = [frozenset(c) for size in range(1, n + 1)
               for c in itertools.combinations(range(n), size)]
    for r in range(1, n + 1):
        for fam in itertools.combinations(subsets, r):
            if frozenset().union(*fam) != frozenset(range(n)):
                continue
            if any(a < b for a in fam for b in fam):
                continue
            yield [sorted(m) for m in fam]


def test_criterion_04_covering_equivalence():
    checked = 0
    for n in range(1, 5):
        covers = list(_antichain_covers(n))
        for members in covers:
            t = covering_from_members(n, members)
            for orders in itertools.product([2, 3], repeat=n):
                group = build_group_product([[q] for q in orders])
                rep = theorem41_check(group, t)
                assert rep["equivalent"], (members, orders, rep)
                checked += 1
    print(f"criterion 4 (covering equivalence, {checked} cases): PASS")


def test_criterion_05_krawtchouk_identities():
    for q in (2, 3, 4):
        for n in range(0, 31):
            for k in range(n + 1):
                poly = ku_build(n, k, q)
                for s in range(n + 1):
                    v = ku_eval(n, k, q, s)
                    assert v == genfun_eval(n, k, q, s)
                    assert v == poly(s)
                    if s >= 1:
                        # sum_{l<=k} KU_(n,l)(s) = KU_(n-1,k)(s-1)
                        assert sum(ku_eval(n, l, q, s) for l in range(k + 1)) == ku_eval(n - 1, k, q, s - 1)
                    if q == 2:
                        assert ku_eval(n, k, 2, n - s) == (-1) ** k * v
    for q in (2, 3, 4):
        for n in range(1, 26):
            for k in range(1, n + 1):
                roots = ku_roots(n, k, q, width=Fraction(1, 1000))
                assert len(roots) == k
                assert all(roots[i][1] <= roots[i + 1][0]
                           for i in range(k - 1))
    print("criterion 5 (Krawtchouk identities and root counts): PASS")


def test_criterion_06_value_vector_oracle():
    for q in (2, 3):
        for n in range(2, 13):
            table = ku_value_table(n - 1, q)
            for k in range(1, n + 1):
                sigs = co_support_signatures(q, n, k)
                sig = {}
                vec = {}
                for t in range(1, n + 1):
                    sig.setdefault(sigs[t], []).append(t)
                    # the values KU_(n-1,s)(t-1) over the multiples s of k
                    vec.setdefault(tuple(table[s][t - 1] for s in range(k, n, k)), []).append(t)
                assert sorted(sig.values()) == sorted(vec.values()), (q, n, k)
    # spot check against a full elementwise dual partition
    group = build_group_product([[2]] * 6)
    gamma = induce_CO(group, pk_covering(2, 6))
    lam = DualityContext(group).left_dual(gamma)
    sigs = co_support_signatures(2, 6, 2)
    by_t = {}
    for idx in range(1, group.order):
        t = len(element_from_index(group, idx).support())
        by_t.setdefault(t, set()).add(int(lam.class_ids[idx]))
    for t, classes in by_t.items():
        assert len(classes) == 1
        assert classes == {int(lam.class_ids[i]) for i in range(1, group.order)
                           if sigs[len(element_from_index(group, i).support())]
                           == sigs[t]}
    print("criterion 6 (value-vector classification oracle): PASS")


def test_criterion_07_verdict_reproduction():
    hypotheses = []
    for n in range(2, 13):
        for q in (2, 3, 4, 5):
            for k in range(1, n + 1):
                hypotheses.append((q, n, k))
    decided_required = set()
    for n in range(2, 13):
        for k in (2, n - 1):
            if 1 <= k <= n:
                decided_required.add((2, n, k, "reflexive"))
        for q in (3, 4, 5):
            if n >= 3:
                for k in range(2, n):
                    if n % k == 1:
                        decided_required.add((q, n, k, "non-reflexive"))
                decided_required.add((q, n, 2, "non-reflexive"))
            if n >= 4:
                decided_required.add((q, n, n - 2, "non-reflexive"))
        if n >= 5:
            for k in range(-(-n // 2), n - 1):
                decided_required.add((2, n, k, "non-reflexive"))
            decided_required.add((2, n, 3, "non-reflexive"))
    for q, n, k in hypotheses:
        v = co_nonreflexivity_verdict(n, k, q)
        if v["verdict"] == "undecided-by-criteria":
            assert not any((q, n, k, want) in decided_required
                           for want in ("reflexive", "non-reflexive"))
            continue
        brute = co_reflexivity_bruteforce(q, n, k)
        assert brute["reflexive"] == (v["verdict"] == "reflexive"), (q, n, k)
    for q, n, k, want in decided_required:
        assert co_nonreflexivity_verdict(n, k, q)["verdict"] == want, (q, n, k)
    print("criterion 7 (verdict reproduction vs brute force): PASS")


def test_criterion_08_smallest_root_convergence():
    for k, q in [(2, 2), (2, 3), (3, 2)]:
        rows = lemma415_convergence(k, q, [100, 1000, 10000], RunConfig(krawtchouk_cap_n=10_000))
        assert rows[-1]["deviation"] <= 0.02, (k, q, rows)
        assert rows[0]["deviation"] > rows[1]["deviation"] > rows[2]["deviation"]
    print("criterion 8 (smallest-root convergence): PASS")


def _random_zero_aligned_partition(space, rng):
    ids = [0] + [rng.randrange(1, rng.randrange(2, space.order))
                 for _ in range(space.order - 1)]
    return Partition.from_keys(ids, host=space.group)


def test_criterion_09_extension_equivalence():
    rng = random.Random(51)
    sizes = [2, 3, 3, 4, 4, 5, 5, 6] * 6 + [7, 7] + [8]
    structured = []
    for n in (4, 5, 6):
        space = PrimeFieldSpace(2, (1,) * n)
        for k in (1, 2, 3):
            gamma = co_vector_space_partition(space, k)
            lam = DualityContext(space.group).left_dual(gamma)
            structured.append((space, lam, gamma))
            structured.append((space, gamma, gamma))
    done = 0
    cases = list(structured)
    for n in sizes:
        space = PrimeFieldSpace(2, (1,) * n)
        gamma = _random_zero_aligned_partition(space, rng)
        lam = gamma if rng.random() < 0.5 else _random_zero_aligned_partition(space, rng)
        cases.append((space, lam, gamma))
    for space, lam, gamma in cases:
        one = onedim_by_codes(space, lam, gamma)
        full = macwilliams_admits(space, lam, gamma)
        assert one["one_dim_statement"] == one["finer_statement"] == full["admits"], (
            space.dim, one, full)
        done += 1
    assert done >= 50
    print(f"criterion 9 (extension-property equivalence, {done} cases): PASS")


def test_criterion_10_conjecture_refutation():
    space = PrimeFieldSpace(2, (1,) * 5)
    res = mep_witness_search(space, co_vector_space_partition(space, 3))
    assert res["witness"] is not None
    assert res["inv_order"] == 120  # product of the basic-orbit lengths: S_5
    rep = conjecture21_report(2, 5, 3)
    assert rep["refuted"] and "explicit-witness" in rep["tiers"]
    rep2 = conjecture21_report(3, 3, 2)
    assert rep2["refuted"]
    assert "criteria-non-reflexive" in rep2["tiers"]
    print("criterion 10 (conjecture refutation with witness): PASS")


def test_criterion_11_character_independence():
    rng = random.Random(3)
    for n in (1, 2, 3):
        space = PrimeFieldSpace(3, (1,) * n)
        ctx = DualityContext(space.group)
        squared = scaled_exponents(ctx, 2)
        candidates = [co_vector_space_partition(space, k) for k in range(1, n + 1)]
        for _ in range(10):
            # random scalar-invariant partition: classes assigned per line
            ids = [0] * space.order
            for idx in range(1, space.order):
                v = element_from_index(space.group, idx)
                rep = min(idx, (v * v).index)  # v * v is 2v
                if rep == idx:
                    ids[idx] = rng.randrange(1, max(2, space.order // 2))
                else:
                    ids[idx] = ids[rep]
            candidates.append(Partition.from_keys(ids, host=space.group))
        for gamma in candidates:
            d1 = ctx._dual(ctx.exponents, gamma)
            d2 = ctx._dual(squared, gamma)
            assert d1 == d2
    print("criterion 11 (character independence): PASS")
