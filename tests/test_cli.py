import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dualpart.cli import _emit, build_parser, main
from dualpart.config import InputError
from dualpart.exactarith import _PSI_13
from dualpart.macwilliams import parse_code_file
from oracles import jsonable


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def chain_poset_file(tmp_path):
    return write_json(
        tmp_path,
        "chain.json",
        {
            "n": 3,
            "relations": [[0, 1], [1, 2]],
            "weights": {"0": "1", "1": "1", "2": "1"},
            "coordinates": [[2], [2], [2]],
        },
    )


@pytest.fixture
def group_file(tmp_path):
    return write_json(tmp_path, "group.json", {"coordinates": [[2], [2], [2], [2]]})


class TestPoset:
    def test_chain_report(self, capsys, chain_poset_file):
        code, out, _ = run(capsys, "poset", chain_poset_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["hierarchical"] and doc["udp"]
        assert doc["aut_order"] == 1 and doc["ideal_count"] == 4
        assert all(doc["theorem32"][k] for k in (
            "udp_and_labels", "mutually_dual", "dual_is_Q_of_dual_poset"))

    def test_fractional_weights_skip_equivalence(self, capsys, tmp_path):
        path = write_json(tmp_path, "v.json", {
            "n": 3,
            "relations": [[0, 2], [1, 2]],
            "weights": {"0": "1/2", "1": "1/2", "2": "1"},
            "coordinates": [[2], [2], [2]],
        })
        code, out, _ = run(capsys, "poset", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["theorem32"] is None and "theorem32_skipped" in doc

    def test_report_searches_once(self, capsys, tmp_path, monkeypatch):
        # with a group attached, aut_order, udp and theorem32 share one
        # automorphism search and one UDP check
        import collections

        from dualpart import cli, partitions, posets

        calls = collections.Counter()
        for name in ("automorphism_group", "udp_check"):
            def counted(*args, _real=getattr(posets, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for mod in (posets, cli, partitions):
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted)
        path = write_json(tmp_path, "hier.json", {
            "n": 4,
            "relations": [[0, 2], [0, 3], [1, 2], [1, 3]],
            "weights": {"0": "1", "1": "1", "2": "2", "3": "2"},
            "coordinates": [[2], [2], [3], [3]],
        })
        code, out, _ = run(capsys, "poset", path)
        doc = json.loads(out)
        assert code == 0 and doc["aut_order"] == 4 and doc["theorem32"]["equivalent"]
        assert calls == {"automorphism_group": 1, "udp_check": 1}

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "poset", str(path))
        assert code == 2
        assert err.strip().startswith("invalid-input:")

    def test_cycle_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "c.json", {"n": 2, "relations": [[0, 1], [1, 0]]})
        code, _, err = run(capsys, "poset", path)
        assert code == 2 and "invalid-input" in err


class TestDual:
    def test_hamming_reflexive(self, capsys, group_file):
        code, out, _ = run(capsys, "dual", group_file, "hamming")
        assert code == 0
        doc = json.loads(out)
        assert doc["reflexive"] and doc["gamma_classes"] == 5

    def test_pk_covering_token(self, capsys, group_file):
        code, out, _ = run(capsys, "dual", group_file, "Pk:3")
        assert code == 0
        doc = json.loads(out)
        assert doc["gamma_classes"] == 3

    def test_export_includes_classes(self, capsys, group_file):
        code, out, _ = run(capsys, "dual", group_file, "hamming", "--export")
        doc = json.loads(out)
        assert len(doc["gamma"]["classes"]) == 5
        assert len(doc["dual"]["classes"]) == 5

    def test_bad_partition_token(self, capsys, group_file):
        code, _, err = run(capsys, "dual", group_file, "Pk:x")
        assert code == 2 and "invalid-input" in err

    def test_covering_json_partition(self, capsys, tmp_path, group_file):
        part = write_json(tmp_path, "cov.json", {
            "n": 4, "members": [[0, 1], [2, 3]],
        })
        code, out, _ = run(capsys, "dual", group_file, part)
        assert code == 0 and json.loads(out)["reflexive"]


class TestScanCo:
    def test_scan_rows(self, capsys):
        code, out, _ = run(capsys, "scan-co", "--q", "2", "--n", "5", "--k", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "q"
        q, n, k, verdict, criterion, classes, bound, confirmed = lines[1].split("\t")
        assert (q, n, k, verdict) == ("2", "5", "3", "non-reflexive")
        assert confirmed == "yes"

    def test_scan_range_all_k(self, capsys):
        code, out, _ = run(capsys, "scan-co", "--q", "3", "--n", "2..4")
        lines = out.strip().splitlines()
        assert code == 0 and len(lines) == 1 + 2 + 3 + 4


class TestKrawtchouk:
    def test_values_and_roots(self, capsys):
        code, out, _ = run(
            capsys, "krawtchouk", "--n", "4", "--k", "2", "--q", "2", "--roots"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["values"] == [6, 0, -2, 0, 6]
        assert [r["approx"] for r in doc["roots"]] == [1.0, 3.0]

    def test_large_n_skips_value_table(self, capsys):
        code, out, _ = run(capsys, "krawtchouk", "--n", "500", "--k", "2", "--q", "2")
        doc = json.loads(out)
        assert code == 0 and "values" not in doc
        assert len(doc["coefficients"]) == 3


class TestMacwilliams:
    def test_verify_code_file(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text("2 4 1 1 1 1\n1 1 0 0\n0 0 1 1\n")
        code, out, _ = run(capsys, "macwilliams", str(path), "--gamma", "hamming")
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] and doc["lambda_spec"] == "dual"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "macwilliams", "/nonexistent", "--gamma", "hamming")
        assert code == 2 and "invalid-input" in err

    @pytest.mark.parametrize("gamma,lam", [("hamming", "dual"), ("Pk:2", "hamming")])
    def test_dimension_10_code_reads_no_pairing_row(self, capsys, tmp_path, monkeypatch, gamma, lam):
        # rho comes from the labels of l(gamma) and C~ from the dual code;
        # 2^10 codewords of length 16 would be 2^26 pairing cells
        from dualpart.groups import GroupProduct
        from dualpart.partitions import DualityContext

        def no_pairing(*args, **kwargs):
            raise AssertionError("pairing rows built")

        monkeypatch.setattr(GroupProduct, "residue_matrix", no_pairing)
        monkeypatch.setattr(DualityContext, "exponents", property(no_pairing))
        rows = [[int(i == j) for j in range(10)] + [(i * j + i + j) % 2 for j in range(6)] for i in range(10)]
        path = tmp_path / "code.txt"
        path.write_text("2 16" + " 1" * 16 + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows))
        code, out, err = run(capsys, "macwilliams", str(path), "--gamma", gamma, "--lambda", lam)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["holds"] and doc["code_dim"] == 10 and doc["dual_dim"] == 6


class TestRefute:
    def test_253(self, capsys):
        code, out, _ = run(capsys, "refute", "2", "5", "3")
        doc = json.loads(out)
        assert code == 0 and doc["refuted"]
        assert "explicit-witness" in doc["tiers"]

    def test_243_open(self, capsys):
        code, out, _ = run(capsys, "refute", "2", "4", "3")
        assert code == 0 and not json.loads(out)["refuted"]

    @pytest.mark.parametrize("k,order", [(4, 322_560), (5, 9_999_360)])
    def test_large_invariance_groups_answer(self, capsys, k, order):
        # 9,999,360 = |GL(5,2)|: the group is counted, not listed
        code, out, _ = run(capsys, "refute", "2", "5", str(k))
        search = json.loads(out)["witness_search"]
        assert code == 0 and search["inv_order"] == order
        assert search["orbit_classes"] == search["delta_classes"]
        assert search["witness"] is None

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, "refute", "3", "3", "2")
        _, b, _ = run(capsys, "refute", "3", "3", "2")
        assert a == b


class TestLatticeDual:
    def test_z2_14_pk2_builds_no_pairing_table(self, capsys, tmp_path, monkeypatch):
        # |G|^2 = 2^28 is over the default pair_work_cap; the support
        # lattice needs 2^14 * 8 cells
        from dualpart.partitions import DualityContext

        def no_table(self):
            raise AssertionError("pairing table built")

        monkeypatch.setattr(DualityContext, "exponents", property(no_table))
        path = write_json(tmp_path, "g.json", {"coordinates": [[2]] * 14})
        code, out, err = run(capsys, "dual", path, "Pk:2")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["gamma_classes"] == doc["dual_classes"] == doc["bidual_classes"] == 8
        assert doc["reflexive"] and doc["bidual_equals_gamma"]

    @pytest.mark.parametrize(
        "coords,counts,reflexive",
        [([[16]] * 7, (5, 8, 8), False), ([[2]] * 64, (33, 33, 33), True)],
        ids=["z16^7", "z2^64"],
    )
    def test_groups_past_the_enumeration_cap_answer(self, capsys, tmp_path, monkeypatch, coords, counts, reflexive):
        # |G| = 2^28 and 2^64 are over enumeration_cap, but no verdict lists
        # G; above 2^62 the sums are Python ints.  The class counts are
        # those of co_reflexivity_bruteforce(16, 7, 2) and (2, 64, 2)
        from dualpart.groups import GroupProduct

        def no_listing(*args, **kwargs):
            raise AssertionError("G listed")

        monkeypatch.setattr(GroupProduct, "residue_matrix", no_listing)
        path = write_json(tmp_path, "g.json", {"coordinates": coords})
        code, out, err = run(capsys, "dual", path, "Pk:2")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert (doc["gamma_classes"], doc["dual_classes"], doc["bidual_classes"]) == counts
        assert doc["reflexive"] == doc["bidual_equals_gamma"] == reflexive

    def test_export_refused_where_g_is_listed(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"coordinates": [[16]] * 7})
        code, out, err = run(capsys, "dual", path, "Pk:2", "--export")
        assert code == 2 and out == ""
        assert err == "budget-exceeded: |G| to list a partition = 268435456 exceeds enumeration_cap = 16777216\n"


class TestBudgetEnv:
    def test_override_applies(self, capsys, tmp_path, monkeypatch):
        budget = write_json(tmp_path, "budget.json", {"ideal_cap_n": 2})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        path = write_json(tmp_path, "p.json", {"n": 4, "relations": []})
        code, _, err = run(capsys, "poset", path)
        assert code == 2 and "budget-exceeded" in err

    def test_bidual_over_budget_keeps_the_verdict(self, capsys, tmp_path, monkeypatch):
        # the left dual decides; only the bidual's transform (32,242 cells)
        # exceeds the cap, so it is reported as refused next to the verdict
        group = write_json(tmp_path, "g.json", {"coordinates": [[2]] * 6 + [[3]] * 6})
        code, out, _ = run(capsys, "dual", group, "Pk:2")
        assert code == 0
        assert json.loads(out) == {
            "bidual_classes": 49, "bidual_equals_gamma": False, "dual_classes": 47,
            "gamma_classes": 7, "reflexive": False, "verdict": "non-reflexive",
        }
        budget = write_json(tmp_path, "budget.json", {"pair_work_cap": 10000})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        code, out, err = run(capsys, "dual", group, "Pk:2")
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "bidual_refused": "states * k * sum(n_b + 1) transform cells = 32242 exceeds pair_work_cap = 10000",
            "dual_classes": 47, "gamma_classes": 7, "reflexive": False, "verdict": "non-reflexive",
        }

    def test_refute_refuses_n_over_a_tighter_krawtchouk_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DUALPART_BUDGET", write_json(tmp_path, "budget.json", {"krawtchouk_cap_n": 8}))
        code, out, err = run(capsys, "refute", "2", "20", "7")
        assert (code, out) == (2, "")
        assert err == "budget-exceeded: Krawtchouk n = 20 exceeds krawtchouk_cap_n = 8\n"

    def test_refute_answers_n_under_a_looser_krawtchouk_cap(self, capsys, tmp_path, monkeypatch):
        # n = 600 is over the default cap of 512: both tables of refute
        # are built under the run's cap
        monkeypatch.setenv("DUALPART_BUDGET", write_json(tmp_path, "budget.json", {"krawtchouk_cap_n": 700}))
        code, out, err = run(capsys, "refute", "2", "600", "7")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["criteria"]["criterion"] == "distinct-value-count"
        assert report["brute_force"]["reflexive"] is False and report["refuted"] is True

    @pytest.mark.parametrize("cap", [2047, 2048, None])
    def test_refute_refinement_under_pair_work_cap(self, capsys, tmp_path, monkeypatch, cap):
        # a refinement round of F_2^5 builds 2 * 32^2 = 2048 cells, checked
        # before it starts; nothing earlier in refute 2 5 3 needs as many
        if cap is not None:
            monkeypatch.setenv("DUALPART_BUDGET", write_json(tmp_path, "budget.json", {"pair_work_cap": cap}))
        code, out, err = run(capsys, "refute", "2", "5", "3")
        if cap == 2047:
            assert (code, out) == (2, "")
            assert err == "budget-exceeded: 2|V|^2 colour-refinement cells = 2048 exceeds pair_work_cap = 2047\n"
        else:
            assert (code, err) == (0, "")
            assert out == (Path(__file__).parent / "golden" / "refute-2-5-3.out").read_text(encoding="utf-8")

    def test_unknown_key_rejected(self, capsys, tmp_path, monkeypatch):
        budget = write_json(tmp_path, "budget.json", {"no_such_knob": 1})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": []})
        code, _, err = run(capsys, "poset", path)
        assert code == 2 and "unknown budget keys" in err


class TestErrorContract:
    """Malformed input exits 2 with one ``code: message`` line on stderr."""

    @staticmethod
    def assert_one_line(code, out, err, reason):
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{reason}: ")

    def test_coordinates_not_a_list(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"coordinates": 5})
        self.assert_one_line(*run(capsys, "dual", path, "hamming"), "invalid-input")

    def test_cyclic_order_not_a_number(self, capsys, tmp_path):
        path = write_json(tmp_path, "g.json", {"coordinates": [["a"]]})
        self.assert_one_line(*run(capsys, "dual", path, "hamming"), "invalid-input")

    @pytest.mark.parametrize(
        "coords,bad",
        [([[2.9], ["2"]], "2.9"), ([[2], ["2"]], "'2'"), ([[True], [2]], "True"), ([[2, 2.0]], "2.0")],
        ids=["float", "string", "bool", "integral-float"],
    )
    def test_cyclic_order_must_be_a_json_integer(self, capsys, tmp_path, coords, bad):
        path = write_json(tmp_path, "g.json", {"coordinates": coords})
        code, out, err = run(capsys, "dual", path, "hamming")
        self.assert_one_line(code, out, err, "invalid-input")
        assert err == f"invalid-input: every cyclic order must be an integer, got {bad}\n"

    def test_poset_weight_divides_by_zero(self, capsys, tmp_path):
        path = write_json(
            tmp_path, "p.json", {"n": 2, "relations": [], "weights": {"0": "1/0", "1": "1"}}
        )
        self.assert_one_line(*run(capsys, "poset", path), "invalid-input")

    def test_scan_k_not_a_number(self, capsys):
        args = ("scan-co", "--q", "2", "--n", "3", "--k", "foo")
        self.assert_one_line(*run(capsys, *args), "invalid-input")

    @pytest.mark.parametrize(
        "args",
        [
            ("--q", "1", "--n", "3"),
            ("--q", "2", "--n", "0..3"),
            ("--q", "2", "--n", "3..6", "--k", "5"),
            ("--q", "2", "--n", "5..3"),
        ],
    )
    def test_scan_arguments_checked_before_the_header(self, capsys, args):
        self.assert_one_line(*run(capsys, "scan-co", *args), "invalid-input")

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "members": [[0, 1.0], [2]]},
            {"n": 3, "members": [[0, True], [1], [2]]},
            {"n": "x", "members": [[0]]},
            {"n": 3, "members": 5},
            {"n": 3, "relations": [], "weights": {"0": 1, "1": 1, "2": [1]}},
            {"n": 3, "relations": [[0, 1.5]]},
            {"n": 3, "relations": [], "weights": {"0": True, "1": 1, "2": 1}},
            {"n": 3, "relations": [], "weights": {"0": 1, "1": 0.1, "2": 1}},
        ],
        ids=["float-member", "bool-member", "n-not-a-number", "members-not-a-list",
             "weight-a-list", "float-relation", "bool-weight", "float-weight"],
    )
    def test_malformed_covering_or_poset(self, capsys, tmp_path, doc):
        group = write_json(tmp_path, "g3.json", {"coordinates": [[2], [2], [2]]})
        path = write_json(tmp_path, "t.json", doc)
        self.assert_one_line(*run(capsys, "dual", group, path), "invalid-input")

    def test_poset_weight_must_be_an_integer_or_a_string(self, capsys, tmp_path):
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": [], "weights": {"0": 1, "1": 0.1}})
        code, out, err = run(capsys, "poset", path)
        self.assert_one_line(code, out, err, "invalid-input")
        assert err == "invalid-input: bad weights: a weight that is not a string must be an integer, got 0.1\n"
        # integers and every string Fraction reads stay accepted
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": [], "weights": {"0": 3, "1": "1e-30"}})
        code, out, _ = run(capsys, "poset", path)
        assert code == 0 and json.loads(out)["udp"]

    @pytest.mark.parametrize("command", ["dual", "poset"])
    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"n": 4.9, "members": [[0, 1], [2, 3]]}, "n must be an integer, got 4.9"),
            ({"n": "4", "relations": [[True, 2]]}, 'n must be an integer, got "4"'),
            ({"n": 4, "relations": [[True, 2]]}, "relation entry must be an integer, got true"),
            ({"n": True, "relations": []}, "n must be an integer, got true"),
        ],
        ids=["float-n", "string-n", "bool-relation", "bool-n"],
    )
    def test_number_must_be_a_json_integer(self, capsys, tmp_path, command, doc, message):
        group = write_json(tmp_path, "g4.json", {"coordinates": [[2]] * 4})
        path = write_json(tmp_path, "t.json", doc)
        argv = ("dual", group, path) if command == "dual" else ("poset", path)
        code, out, err = run(capsys, *argv)
        self.assert_one_line(code, out, err, "invalid-input")
        assert err.startswith("invalid-input: bad ") and err.endswith(f" JSON: {message}\n")

    @pytest.mark.parametrize("doc", [0, 1.5, True, None, "relations", [["members"]]])
    def test_partition_document_not_an_object(self, capsys, tmp_path, group_file, doc):
        path = write_json(tmp_path, "t.json", doc)
        code, out, err = run(capsys, "dual", group_file, path)
        self.assert_one_line(code, out, err, "invalid-input")
        assert "JSON must be an object" in err

    @pytest.fixture
    def refuse_building(self, monkeypatch):
        """Poset and covering construction raise, so a size refused late
        shows as an internal error instead of an allocation of 2^70."""
        import dualpart.cli

        def refuse(*args, **kwargs):
            raise AssertionError("built before the size check")

        monkeypatch.setattr(dualpart.cli, "validate_and_close", refuse)
        monkeypatch.setattr(dualpart.cli, "covering_from_members", refuse)

    @pytest.mark.parametrize("n", [13, 5000, 2**70])
    def test_poset_size_refused_before_the_closure(self, capsys, tmp_path, refuse_building, n):
        path = write_json(tmp_path, "p.json", {"n": n, "relations": []})
        code, out, err = run(capsys, "poset", path)
        self.assert_one_line(code, out, err, "budget-exceeded")
        assert f"poset size for the UDP check = {n} exceeds aut_cap_n = 12" in err

    @pytest.mark.parametrize(
        "doc,kind",
        [
            ({"n": 2**70, "relations": []}, "poset"),
            ({"n": 2**70, "members": [[0]]}, "covering"),
            ({"n": 3, "members": [[0], [1], [2]]}, "covering"),
        ],
        ids=["poset-2^70", "covering-2^70", "covering-3"],
    )
    def test_document_size_checked_against_the_group(self, capsys, tmp_path, group_file, refuse_building, doc, kind):
        path = write_json(tmp_path, "t.json", doc)
        code, out, err = run(capsys, "dual", group_file, path)
        self.assert_one_line(code, out, err, "invalid-input")
        assert f"{kind} size {doc['n']} differs from the group's coordinate count 4" in err

    def test_lambda_not_finer_than_the_dual(self, capsys, tmp_path):
        # P(2) is coarser than l(Hamming), the Hamming partition itself
        path = tmp_path / "code.txt"
        path.write_text("2 4 1 1 1 1\n1 1 0 0\n")
        code, out, err = run(capsys, "macwilliams", str(path), "--gamma", "hamming", "--lambda", "Pk:2")
        self.assert_one_line(code, out, err, "invalid-input")
        assert "lambda is not finer than l(gamma); witness (" in err

    @pytest.mark.parametrize(
        "coords,m",
        [([[7], [11], [13], [17], [19], [23], [29]], 215656441), ([[1 << 40]], 1 << 40)],
        ids=["seven-primes", "2^40"],
    )
    def test_exponent_over_budget(self, capsys, tmp_path, coords, m):
        # few states, but Phi_m of the cyclotomic field would be listed
        path = write_json(tmp_path, "g.json", {"coordinates": coords})
        code, out, err = run(capsys, "dual", path, "hamming")
        self.assert_one_line(code, out, err, "budget-exceeded")
        assert err == f"budget-exceeded: exponent m of the cyclotomic field = {m} exceeds enumeration_cap = 16777216\n"

    def test_covering_relaxation_over_budget(self, capsys, tmp_path, monkeypatch):
        budget = write_json(tmp_path, "budget.json", {"pair_work_cap": 20})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        group = write_json(tmp_path, "g3.json", {"coordinates": [[2], [2], [2]]})
        path = write_json(tmp_path, "t.json", {"n": 3, "members": [[0, 1], [1, 2], [0, 2]]})
        code, out, err = run(capsys, "dual", group, path)
        self.assert_one_line(code, out, err, "budget-exceeded")
        assert "covering-weight cells = 24 exceeds pair_work_cap = 20" in err

    @pytest.mark.parametrize(
        "args,what",
        [
            (("krawtchouk", "--n", "9", "--k", "2", "--q", "2"), "krawtchouk --n = 9"),
            (("krawtchouk", "--n", "4", "--k", "9", "--q", "2"), "krawtchouk --k = 9"),
            (("scan-co", "--q", "2", "--n", "3..9"), "scan-co last n = 9"),
        ],
        ids=["krawtchouk-n", "krawtchouk-k", "scan-co-last-n"],
    )
    def test_krawtchouk_inputs_over_budget(self, capsys, tmp_path, monkeypatch, args, what):
        budget = write_json(tmp_path, "budget.json", {"krawtchouk_cap_n": 8})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        code, out, err = run(capsys, *args)
        self.assert_one_line(code, out, err, "budget-exceeded")
        assert f"{what} exceeds krawtchouk_cap_n = 8" in err

    def test_budget_value_not_an_integer(self, capsys, tmp_path, monkeypatch):
        budget = write_json(tmp_path, "budget.json", {"pair_work_cap": "big"})
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": []})
        self.assert_one_line(*run(capsys, "poset", path), "invalid-input")

    def test_budget_file_not_an_object(self, capsys, tmp_path, monkeypatch):
        budget = write_json(tmp_path, "budget.json", 5)
        monkeypatch.setenv("DUALPART_BUDGET", budget)
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": []})
        self.assert_one_line(*run(capsys, "poset", path), "invalid-input")

    def test_group_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_bytes(b'{"coordinates": [[2]], "name": "\xff"}')
        self.assert_one_line(*run(capsys, "dual", str(path), "hamming"), "invalid-input")

    def test_code_file_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "code.txt"
        path.write_bytes(b"2 2 1 1\n1 1\xff\n")
        self.assert_one_line(*run(capsys, "macwilliams", str(path), "--gamma", "hamming"), "invalid-input")

    def test_budget_file_not_utf8(self, capsys, tmp_path, monkeypatch):
        budget = tmp_path / "budget.json"
        budget.write_bytes(b'{"ideal_cap_n": 20, "\xff": 1}')
        monkeypatch.setenv("DUALPART_BUDGET", str(budget))
        path = write_json(tmp_path, "p.json", {"n": 2, "relations": []})
        self.assert_one_line(*run(capsys, "poset", path), "invalid-input")

    def test_invariant_failure_is_a_code(self, capsys, group_file, monkeypatch):
        import dualpart.cli

        def broken(*args, **kwargs):
            raise AssertionError("bidual is not finer than the input partition")

        monkeypatch.setattr(dualpart.cli, "reflexivity_check", broken)
        self.assert_one_line(*run(capsys, "dual", group_file, "hamming"), "internal-error")

    @pytest.mark.parametrize("argv", [
        ["krawtchouk", "--n", "x", "--k", "2", "--q", "2"],
        ["refute", "2", "4"],
        ["frobnicate"],
        [],
        ["dual", "g.json", "hamming", "--exprot"],
    ])
    def test_argument_errors(self, capsys, argv):
        self.assert_one_line(*run(capsys, *argv), "invalid-input")

    @pytest.mark.parametrize("argv", [["--help"], ["dual", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: dualpart")


class TestParserAndOutput:
    def test_parser_built_once_and_keeps_no_state(self, capsys, group_file):
        assert build_parser() is build_parser()
        code, out, _ = run(capsys, "dual", group_file, "hamming", "--export")
        assert code == 0 and "gamma" in json.loads(out)
        code, out, _ = run(capsys, "dual", group_file, "hamming")
        doc = json.loads(out)
        assert code == 0 and "gamma" not in doc and "dual" not in doc

    def test_commands_found_by_name_at_each_call(self, capsys, monkeypatch):
        import dualpart.cli

        build_parser()
        seen = []
        monkeypatch.setattr(dualpart.cli, "cmd_refute", lambda args: seen.append(args.k) or 0)
        assert run(capsys, "refute", "2", "4", "3") == (0, "", "")
        assert seen == [3]

    @pytest.mark.parametrize("payload", [
        {"whole": Fraction(6, 3), "part": Fraction(-1, 3), "list": [Fraction(5), Fraction(7, 2)]},
        {"udp_witness": (frozenset({3, 1, 2}), frozenset()), "set": {5, -1}},
        {"nested": ((1, (2, (3,))), [(), ("a", None)]), "b": {"c": {"d": (True, 1.5)}}},
        {"i": np.int64(-7), "ok": np.bool_(True), "no": np.bool_(False), "row": np.arange(3)},
        {"grid": np.array([[1, 2], [3, 4]], dtype=np.int16), "mask": np.array([True, False]), "f": np.float64(0.25)},
        [{"z": 1, "a": [Fraction(1, 2), np.int64(2)]}, (np.int32(3), frozenset({(2, 1), (1, 2)}))],
    ])
    def test_emit_matches_recursive_conversion(self, capsys, payload):
        _emit(payload)
        assert capsys.readouterr().out == json.dumps(jsonable(payload), sort_keys=True) + "\n"


class TestFuzzCommands:
    """Random integers, small, zero, negative and over the Krawtchouk cap,
    for the commands that read Krawtchouk values: each call exits 0 with an
    empty stderr, or exits 2 with one ``code: message`` line."""

    over = st.sampled_from([513, 10**9, -(10**9)])
    wild = st.one_of(st.integers(-2, 40), over)
    wild_n = st.one_of(st.integers(-2, 12), over)  # a scan or refute row costs O(n^2)
    fuzz = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

    @staticmethod
    def check(capsys, argv):
        code, out, err = run(capsys, *argv)
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert code == 2 and out == "", (argv, code)
            assert re.fullmatch(r"[a-z-]+: [^\n]+\n", err), (argv, err)

    @given(n=wild, k=wild, q=wild, roots=st.booleans())
    @fuzz
    def test_krawtchouk(self, capsys, n, k, q, roots):
        self.check(capsys, ["krawtchouk", "--n", str(n), "--k", str(k), "--q", str(q)] + ["--roots"] * roots)

    @given(q=wild, lo=wild_n, hi=st.one_of(st.none(), st.integers(-2, 12), st.just(513)), k=st.one_of(st.none(), wild))
    @fuzz
    def test_scan_co(self, capsys, q, lo, hi, k):
        n = str(lo) if hi is None else f"{lo}..{hi}"
        self.check(capsys, ["scan-co", "--q", str(q), "--n", n, "--k", "all" if k is None else str(k)])

    @given(
        q=st.one_of(st.sampled_from([2, 3, 5, 7]), wild),
        n=wild_n,
        k=st.one_of(st.integers(-2, 12), wild),
    )
    @fuzz
    def test_refute(self, capsys, q, n, k):
        self.check(capsys, ["refute", str(q), str(n), str(k)])


# the largest N with p^N <= 3^6, for each prime a valid header may carry
_CODE_DIM_LIMIT = {2: 9, 3: 6, 5: 4, 7: 3}


@st.composite
def code_files(draw):
    """The bytes of a code file: "p N k_1 k_2 ..." and generator rows, well
    formed or with one fault.  Digits may be negative or at least p, which
    are read mod p.  A well-formed header keeps p^N <= 3^6; a broken one is
    refused before anything is listed."""
    fault = draw(st.sampled_from([None] * 6 + ["p", "sum", "block", "header", "short", "length", "digit", "utf8"]))
    if fault == "p":
        p = draw(st.sampled_from([0, 1, -3, 4, 9, _PSI_13 + 2, 10**40]))
    else:
        p = draw(st.sampled_from(sorted(_CODE_DIM_LIMIT)))
    limit = _CODE_DIM_LIMIT.get(p, 6)
    count = draw(st.integers(1, 3))
    blocks = draw(st.lists(st.integers(1, max(1, limit // count)), min_size=count, max_size=count))
    if fault == "block":
        blocks[draw(st.integers(0, count - 1))] = draw(st.integers(-2, 0))
    n = sum(blocks) + (draw(st.sampled_from([-1, 1, 7])) if fault == "sum" else 0)
    head = [str(p), str(n)] + [str(b) for b in blocks]
    junk = st.sampled_from(["x", "1.5", "-", "0x1", "1e3", "½"])
    if fault == "header":
        head[draw(st.integers(0, len(head) - 1))] = draw(junk)
    if fault == "short":
        head = head[: draw(st.integers(0, 2))]
    digit = st.one_of(st.integers(0, max(p, 2) - 1), st.integers(-3, 12), st.just(10**20))
    width = max(n, 0)
    rows = [[str(d) for d in draw(st.lists(digit, min_size=width, max_size=width))] for _ in range(draw(st.integers(0, width + 1)))]
    if rows and fault == "length":
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:-1] if rows[r] and draw(st.booleans()) else rows[r] + ["1"]
    if rows and rows[0] and fault == "digit":
        rows[0][draw(st.integers(0, len(rows[0]) - 1))] = draw(junk)
    data = "\n".join([" ".join(head)] + [" ".join(r) for r in rows]).encode()
    if fault == "utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80\xfe"])) + data[at:]
    return data


class TestFuzzCodeFiles:
    """Random code files, well formed or not, through ``parse_code_file``
    and ``dualpart macwilliams``: a file is read or refused with
    InputError, and each call exits 0 with an empty stderr, or exits 2
    with one ``code: message`` line."""

    @given(data=code_files(), gamma=st.sampled_from(["hamming", "Pk:2"]))
    @TestFuzzCommands.fuzz
    def test_macwilliams(self, capsys, tmp_path, data, gamma):
        try:
            parse_code_file(data.decode("utf-8"))
        except (UnicodeDecodeError, InputError):
            pass
        path = tmp_path / "code.txt"
        path.write_bytes(data)
        TestFuzzCommands.check(capsys, ["macwilliams", str(path), "--gamma", gamma, "--lambda", "dual"])
