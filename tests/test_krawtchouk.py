import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualpart.config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from dualpart.krawtchouk import (
    co_nonreflexivity_verdict,
    dual_class_lower_bound,
    ku_build,
    ku_roots,
    ku_rows,
    ku_value_table,
    ku_values,
    thm42_threshold,
)
from oracles import (
    bisect_roots,
    convolution_coeffs,
    derivative_smallest_root_floor,
    genfun_eval,
    grid_roots,
    isolate_real_roots,
    ku_derivative_roots,
    smallest_root_floor,
)
from paper import eq45_w, eq45_w_floor, ku_eval, lemma415_convergence


class TestBuildAndEval:
    def test_k0_is_constant_one(self):
        poly = ku_build(7, 0, 3)
        assert poly.coeffs == (Fraction(1),)

    def test_known_values_422(self):
        assert [ku_eval(4, 2, 2, s) for s in range(5)] == [6, 0, -2, 0, 6]

    def test_value_at_zero(self):
        for n in range(1, 12):
            for k in range(n + 1):
                for q in (2, 3, 4):
                    assert ku_eval(n, k, q, 0) == math.comb(n, k) * (q - 1) ** k

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_three_engines_agree(self, q):
        # the binomial sum against the generating-function oracle and the
        # expanded polynomial
        for n in range(0, 13):
            for k in range(n + 1):
                poly = ku_build(n, k, q)
                for s in range(n + 1):
                    a = ku_eval(n, k, q, s)
                    assert a == genfun_eval(n, k, q, s) == poly(s)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_build_matches_convolution_oracle(self, q):
        for n in range(0, 16):
            for k in range(n + 3):
                assert ku_build(n, k, q).coeffs == convolution_coeffs(n, k, q)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_value_table_matches_binomial_sum(self, q):
        # the recurrence table of H(n - 1, q) against the binomial sum,
        # H(0, q) and H(1, q) included
        for n in range(1, 31):
            want = [[ku_eval(n - 1, s, q, j) for j in range(n)] for s in range(n)]
            assert ku_value_table(n - 1, q) == want, (q, n)

    def test_values_match_binomial_sum(self):
        # the recurrence values of the krawtchouk command, k = 0 and k > n included
        for q in (2, 3, 5):
            for n in range(31):
                for k in range(n + 3):
                    assert ku_values(n, k, q) == [ku_eval(n, k, q, s) for s in range(n + 1)], (q, n, k)

    def test_value_table_rejects_empty_n(self):
        # H(0, q) has the one entry K_0(0) = 1; below it there is no table
        assert ku_value_table(0, 2) == [[1]]
        with pytest.raises(InputError):
            ku_value_table(-1, 2)
        with pytest.raises(InputError):
            ku_value_table(3, 1)

    def test_degree_is_k(self):
        import random

        rng = random.Random(0)
        for _ in range(25):
            n = rng.randrange(1, 31)
            k = rng.randrange(0, n + 1)
            q = rng.choice([2, 3, 4, 5])
            poly = ku_build(n, k, q)
            assert poly.degree == k
            assert poly.coeffs[-1] != 0

    def test_engine_range_errors(self):
        with pytest.raises(InputError):
            ku_eval(4, 2, 2, 5)
        with pytest.raises(InputError):
            ku_eval(4, 2, 2, -1)
        # polynomial evaluation has no range restriction
        assert ku_build(4, 2, 2)(9) == 96  # 6 - 8*9 + 2*81


class TestBudget:
    def test_cap_checked_before_any_work(self, monkeypatch):
        from dualpart import krawtchouk

        def refuse(*args):
            raise AssertionError("Krawtchouk value evaluated")

        monkeypatch.setattr(krawtchouk, "ku_rows", refuse)
        monkeypatch.setattr(krawtchouk, "_value_and_slope", refuse)
        for call in (ku_build, ku_roots):
            with pytest.raises(BudgetError, match=r"^Krawtchouk n = 1000000000 exceeds krawtchouk_cap_n = 512$"):
                call(10**9, 3, 2)

    def test_cap_from_config(self):
        tight = RunConfig(krawtchouk_cap_n=8)
        with pytest.raises(BudgetError, match=r"^Krawtchouk n = 9 exceeds krawtchouk_cap_n = 8$"):
            ku_build(9, 2, 2, tight)
        with pytest.raises(BudgetError, match=r"^Krawtchouk k = 9 exceeds krawtchouk_cap_n = 8$"):
            ku_build(8, 9, 2, tight)
        with pytest.raises(BudgetError, match=r"^Krawtchouk n = 9 exceeds krawtchouk_cap_n = 8$"):
            ku_roots(9, 2, 2, config=tight)
        assert ku_build(8, 8, 2, tight).degree == 8
        assert len(ku_roots(8, 8, 2, config=tight)) == 8

    def test_value_tables_capped_before_any_work(self, monkeypatch):
        from dualpart import krawtchouk, partitions

        def refuse(*args):
            raise AssertionError("Krawtchouk value evaluated")

        tight = RunConfig(krawtchouk_cap_n=8)

        def criteria(n, q, cfg):
            # q = 2, k = 4 at n + 1 >= 10: no closed form fires, so the
            # chain reads the distinct counts of the table of H(n, q)
            return co_nonreflexivity_verdict(n + 1, 4, q, config=cfg)

        with monkeypatch.context() as m:
            for module in (krawtchouk, partitions):
                m.setattr(module, "ku_rows", refuse)
            for call in (ku_value_table, criteria):
                with pytest.raises(BudgetError, match=r"^Krawtchouk n = 9 exceeds krawtchouk_cap_n = 8$"):
                    call(9, 2, tight)
                # at the default cap, a table that would take minutes is refused at once
                with pytest.raises(BudgetError, match=r"^Krawtchouk n = 20000 exceeds krawtchouk_cap_n = 512$"):
                    call(20000, 2, DEFAULT_CONFIG)
        assert len(ku_value_table(8, 2, tight)) == 9


class TestIdentities:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_partial_sum_identity(self, q):
        for n in range(1, 13):
            for k in range(n + 1):
                for s in range(1, n + 1):
                    # sum_{l<=k} KU_(n,l)(s) = KU_(n-1,k)(s-1)
                    assert sum(ku_eval(n, l, q, s) for l in range(k + 1)) == ku_eval(n - 1, k, q, s - 1)

    def test_q2_symmetry(self):
        for n in range(0, 13):
            for k in range(n + 1):
                for s in range(n + 1):
                    assert ku_eval(n, k, 2, n - s) == (-1) ** k * ku_eval(n, k, 2, s)


class TestRoots:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_root_counts(self, q):
        for n in range(1, 16):
            for k in range(1, n + 1):
                roots = ku_roots(n, k, q, width=Fraction(1, 1000))
                assert len(roots) == k
                # roots are guaranteed inside (0, n); interval endpoints may
                # touch the boundary
                for lo, hi in roots:
                    assert 0 <= lo <= hi <= n
                assert all(roots[i][1] <= roots[i + 1][0] for i in range(k - 1))

    def test_roots_422_exact(self):
        roots = ku_roots(4, 2, 2)
        assert roots == [(1, 1), (3, 3)]

    def test_width_honoured(self):
        for lo, hi in ku_roots(9, 4, 3):
            assert hi - lo <= Fraction(1, 10**9)

    @pytest.mark.parametrize("q", [2, 3, 5, 7, None])
    def test_matches_grid_oracle(self, q):
        # same tuples as the refined-grid isolator.  Exact roots on cell
        # ends: 1 and 3 for (4,2,2), 27/2 for (27,3,2), 50 for (100,3,2);
        # (136,2,3) and (64,2,6) hit 85 and 56 at the midpoint of a cell
        # holding both roots.  At width 1/4 some cells are exactly as wide
        # as the width.
        if q is None:
            cases = [(27, 3, 2), (100, 3, 2), (136, 2, 3), (64, 2, 6)]
        else:
            cases = [(n, k, q) for n in range(2, 21) for k in range(2, n + 1)]
        for n, k, q in cases:
            for width in (Fraction(1, 10**9), Fraction(1, 100), Fraction(1, 4)):
                assert ku_roots(n, k, q, width) == grid_roots(n, k, q, width), (n, k, q, width)

    @staticmethod
    def count_passes(monkeypatch):
        """Count every pass of the recurrence at one point: the oracle's
        ``sturm_chain`` and the library's ``_value_and_slope`` each run it
        once per call."""
        import oracles
        from dualpart import krawtchouk

        calls = [0]
        for module, name in ((oracles, "sturm_chain"), (krawtchouk, "_value_and_slope")):
            def counted(*args, _inner=getattr(module, name)):
                calls[0] += 1
                return _inner(*args)

            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7, None])
    def test_matches_bisection_oracle(self, q, monkeypatch):
        # the isolation from the integer values returns the tuples of Sturm
        # counts and bisection to the same grid, with at most twice their
        # passes plus 2 per root.  The exact roots are those of
        # test_matches_grid_oracle; width 1e-20 takes some 67 bisection
        # steps per root.  At widths 1/2, 1 and 4 the final cells are half
        # a unit wide or more, and at width 4 two roots share a cell in 133
        # of the cases, which are then placed on the next grid
        calls = self.count_passes(monkeypatch)
        if q is None:
            cases = [(27, 3, 2), (100, 3, 2), (136, 2, 3), (64, 2, 6)]
        else:
            cases = [(n, k, q) for n in range(2, 31) for k in range(2, n + 1)]
        widths = (
            Fraction(1, 10**9), Fraction(1, 100), Fraction(1, 4), Fraction(1, 10**20),
            Fraction(1, 2), Fraction(1), Fraction(4),
        )
        for n, k, q in cases:
            for width in widths:
                calls[0] = 0
                got = ku_roots(n, k, q, width)
                passes = calls[0]
                calls[0] = 0
                assert got == bisect_roots(n, k, q, width), (n, k, q, width)
                assert passes <= 2 * calls[0] + 2 * k, (n, k, q, width, passes, calls[0])

    def test_passes_per_root_on_the_benchmark_ladder(self, monkeypatch):
        # the (n, k) of the criteria workload's ``krawtchouk --roots``
        # instances, at the default width 1e-9: bisection takes 30 to 34
        # passes per root there
        calls = self.count_passes(monkeypatch)
        for q in (2, 3, 4, 5):
            for n, k in ((30, 8), (40, 10), (50, 12), (60, 14), (70, 16), (80, 18)):
                calls[0] = 0
                assert len(ku_roots(n, k, q)) == k
                assert calls[0] <= 12 * k, (n, k, q, calls[0])

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
    def test_integer_values_place_every_root(self, q):
        # no closed [j, j+1] holds two roots, so the integer zeros and the
        # sign changes of K_k on 0..n number exactly k, and no two
        # neighbouring integers are both zeros; every row of one
        # ku_rows(n, n, q), K_0 included
        for n in range(1, 61):
            for k, row in enumerate(ku_rows(n, n, q)):
                signs = [(v > 0) - (v < 0) for v in row]
                zeros = [j for j, s in enumerate(signs) if s == 0]
                changes = sum(a * b < 0 for a, b in zip(signs, signs[1:]))
                assert len(zeros) + changes == k, (q, n, k)
                assert all(b - a > 1 for a, b in zip(zeros, zeros[1:])), (q, n, k)

    def test_wrong_root_count_is_an_internal_error(self, capsys, monkeypatch):
        # values that show no root: ku_roots raises, and the CLI reports
        # one internal-error line
        from dualpart import krawtchouk
        from dualpart.cli import main

        rows = list(ku_rows(12, 4, 3))[:-1] + [[1] * 13]
        monkeypatch.setattr(krawtchouk, "ku_rows", lambda n, k, q: iter(rows))
        with pytest.raises(AssertionError, match=r"^K_4 for n = 12, q = 3 shows 0 roots on 0\.\.12, not 4$"):
            ku_roots(12, 4, 3)
        assert main(["krawtchouk", "--n", "12", "--k", "4", "--q", "3", "--roots"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal-error: K_4 for n = 12, q = 3 shows 0 roots on 0..12, not 4\n"

    @pytest.mark.parametrize("width", [Fraction(0), Fraction(-1), -1])
    def test_rejects_nonpositive_width(self, width):
        with pytest.raises(InputError):
            ku_roots(5, 2, 3, width=width)

    def test_linear_root_exact(self):
        (lo, hi), = ku_roots(6, 1, 3)
        assert lo == hi == Fraction(6 * 2, 3)

    def test_derivative_interlacing(self):
        for n, k, q in [(6, 3, 2), (8, 4, 3), (10, 5, 2)]:
            r = ku_roots(n, k, q, width=Fraction(1, 10**6))
            d = ku_derivative_roots(n, k, q, width=Fraction(1, 10**6))
            assert len(d) == k - 1
            for i, (dlo, dhi) in enumerate(d):
                assert r[i][1] <= dhi and dlo <= r[i + 1][0]

    def test_smallest_root_floor_matches_isolation(self):
        for n in range(1, 16):
            for k in range(1, n + 1):
                for q in (2, 3):
                    lo, hi = ku_roots(n, k, q, width=Fraction(1, 100))[0]
                    f = smallest_root_floor(n, k, q)
                    assert f <= hi and lo <= f + 1
                    if k >= 2:
                        lo, hi = ku_derivative_roots(n, k, q, width=Fraction(1, 100))[0]
                        f = derivative_smallest_root_floor(n, k, q)
                        assert f <= hi and lo <= f + 1

    def test_derivative_floor_spot(self):
        # k=2 derivative root is the exact rational vertex
        for n in range(3, 12):
            for q in (2, 3):
                poly = ku_build(n, 2, q)
                vertex = -poly.coeffs[1] / (2 * poly.coeffs[2])
                assert derivative_smallest_root_floor(n, 2, q) == math.floor(vertex)

    def test_isolate_rejects_wrong_count(self):
        # the grid oracle: x^2 + 1 has no real roots; asking for one must
        # exhaust refinement
        with pytest.raises(BudgetError):
            isolate_real_roots([1, 0, 1], Fraction(0), Fraction(4), 1, max_refine=8)


class TestThresholds:
    def test_q2_clause31_bracket(self):
        assert thm42_threshold(2, "3.1", 15)
        assert not thm42_threshold(2, "3.1", 9)

    def test_large_n_true(self):
        for q in (2, 3, 5):
            assert thm42_threshold(q, "3.1", 10**6)
            assert thm42_threshold(q, "3.3", 10**6)

    @pytest.mark.parametrize("clause,a_of,b_of", [
        ("3.1", lambda q: 9 * (q - 1), lambda q: 48 * q**4 - 144 * q**3 + 189 * q**2 - 162 * q + 81),
        ("3.3", lambda q: 4 * q**2 + 3 * q - 9, lambda q: 48 * q**4 - 72 * q**3 + 9 * q**2 - 54 * q + 81),
    ])
    def test_agrees_with_high_precision_oracle(self, clause, a_of, b_of):
        from decimal import Decimal, getcontext

        getcontext().prec = 100
        for q in (2, 3, 4, 7):
            bound = (Decimal(a_of(q)) + Decimal(b_of(q)).sqrt()) / Decimal(
                2 * (2 * q - 3) ** 2
            ) + 3
            for n in range(3, 40):
                assert thm42_threshold(q, clause, n) == (Decimal(n) >= bound)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InputError):
            thm42_threshold(1, "3.1", 10)
        with pytest.raises(InputError):
            thm42_threshold(2, "3.2", 10)


class TestClosedFormRoot:
    @pytest.mark.parametrize("q", [2, 3])
    def test_matches_isolated_derivative_root(self, q):
        for n in range(4, 30):
            info = eq45_w(n, q)
            lo, hi = ku_derivative_roots(n - 1, 3, q)[0]
            assert float(lo) - 1e-6 <= info["value"] <= float(hi) + 1e-6

    def test_floor_exact_vs_float(self):
        for q in (2, 3, 5):
            for n in range(4, 60):
                info = eq45_w(n, q)
                # floats are only a sanity check; keep clear of ties
                if abs(info["value"] - round(info["value"])) > 1e-6:
                    assert info["floor"] == math.floor(info["value"])

    def test_q2_n20_branch(self):
        assert eq45_w_floor(20, 2) >= Fraction(20, 3)

    def test_rejects_small_n(self):
        with pytest.raises(InputError):
            eq45_w(3, 2)


class TestConvergence:
    def test_linear_case_exact(self):
        rows = lemma415_convergence(1, 3, [5, 10])
        for row in rows:
            assert row["deviation"] == 0

    def test_deviation_decreases(self):
        for k, q in [(2, 2), (3, 2), (2, 3)]:
            rows = lemma415_convergence(k, q, [100, 1000], RunConfig(krawtchouk_cap_n=1000))
            assert rows[1]["deviation"] < rows[0]["deviation"]


class TestVerdicts:
    @pytest.mark.parametrize(
        "n,k,q,expect",
        [
            (5, 3, 2, "non-reflexive"),
            (4, 3, 3, "non-reflexive"),
            (6, 5, 2, "reflexive"),
            (6, 2, 2, "reflexive"),
            (3, 2, 3, "non-reflexive"),
            (7, 7, 5, "reflexive"),
            (9, 1, 4, "reflexive"),
            (4, 2, 3, "non-reflexive"),
        ],
    )
    def test_expected_verdicts(self, n, k, q, expect):
        assert co_nonreflexivity_verdict(n, k, q)["verdict"] == expect

    def test_distinct_value_count_dominates_root_floors(self):
        # why the chain needs no root-floor criterion after the count
        for q in (2, 3, 5):
            for n in range(2, 25):
                for s in range(1, n + 1):
                    count = len({ku_eval(n, s, q, j) for j in range(n + 1)}) - 1
                    assert count >= smallest_root_floor(n, s, q), (q, n, s)
                    if s >= 2:
                        assert count >= derivative_smallest_root_floor(n, s, q), (q, n, s)

    def test_verdicts_never_contradict_brute_force(self):
        from dualpart.partitions import co_reflexivity_bruteforce

        for q in (2, 3):
            for n in range(1, 11):
                for k in range(1, n + 1):
                    v = co_nonreflexivity_verdict(n, k, q)
                    if v["verdict"] == "undecided-by-criteria":
                        continue
                    brute = co_reflexivity_bruteforce(q, n, k)
                    assert brute["reflexive"] == (v["verdict"] == "reflexive"), (q, n, k, v)

    def test_value_vector_classifies_dual_classes(self):
        from oracles import co_support_signatures

        # the values KU_(n-1,s)(t-1) over the multiples s of k fingerprint
        # the dual class of support size t
        q, n, k = 3, 6, 2
        sigs = co_support_signatures(q, n, k)
        table = ku_value_table(n - 1, q)
        sig_classes = {}
        vec_classes = {}
        for t in range(1, n + 1):
            sig_classes.setdefault(sigs[t], []).append(t)
            vec_classes.setdefault(tuple(table[s][t - 1] for s in range(k, n, k)), []).append(t)
        assert sorted(sig_classes.values()) == sorted(vec_classes.values())

    def test_lower_bound_at_least_co_classes(self):
        for q in (2, 3):
            for n in range(2, 12):
                for k in range(1, n):
                    assert dual_class_lower_bound(n, k, q) >= 1
