"""Tests of the benchmark's own checks and span recorder, on cases known by
hand.  Run with ``python3 -m pytest perfbench``."""

import contextlib
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import spans

SRC = Path(__file__).resolve().parent.parent / "src"


# -- arithmetic --------------------------------------------------------------

@pytest.mark.parametrize(
    "m, phi",
    [(1, [-1, 1]), (2, [1, 1]), (4, [1, 0, 1]), (6, [1, -1, 1]), (12, [1, 0, -1, 0, 1]), (9, [1, 0, 0, 1, 0, 0, 1])],
)
def test_cyclotomic_polynomials(m, phi):
    assert checks.cyclotomic(m) == phi


def test_reduction_mod_cyclotomic():
    # all m-th roots of unity sum to 0; zeta_4^2 = -1; zeta_3^2 = -1 - zeta_3
    assert not checks.reduce_mod_cyclotomic(np.ones(12, dtype=np.int64), 12).any()
    assert checks.reduce_mod_cyclotomic(np.array([0, 0, 1, 0]), 4).tolist() == [-1, 0]
    assert checks.reduce_mod_cyclotomic(np.array([0, 0, 1]), 3).tolist() == [-1, -1]


@pytest.mark.parametrize("n, q", [(5, 2), (7, 3), (4, 5)])
def test_first_krawtchouk_polynomial(n, q):
    # K_1(x) = (q - 1) n - q x, also at rational points
    for x in range(n + 1):
        assert checks.kraw(n, 1, q, x) == (q - 1) * n - q * x
    x = Fraction(7, 3)
    assert checks.kraw_frac(n, 1, q, x) == (q - 1) * n - q * x


def test_krawtchouk_orthogonality():
    n, q = 6, 3
    for k in range(n + 1):
        for l in range(n + 1):
            total = sum(
                math.comb(n, i) * (q - 1) ** i * checks.kraw(n, k, q, i) * checks.kraw(n, l, q, i)
                for i in range(n + 1)
            )
            want = q**n * math.comb(n, k) * (q - 1) ** k if k == l else 0
            assert total == want


# -- dual partitions -----------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_hamming_on_binary_space_has_n_plus_1_dual_classes(n):
    coords = [[2]] * n
    gamma = checks.induced_partition(coords, {"type": "hamming"})
    table, m = checks.pairing_table(coords)
    assert checks.num_classes(gamma) == n + 1
    assert checks.num_classes(checks.dual_partition(table, m, gamma)) == n + 1
    assert checks.pk_dual_class_count(2, n, 1) == n + 1


def test_cyclic_group_singletons_dual_is_discrete():
    # the discrete partition of Z/6 is self-dual (characters separate points)
    table, m = checks.pairing_table([[6]])
    dual = checks.dual_partition(table, m, np.arange(6))
    assert checks.num_classes(dual) == 6


def test_coarsest_partition_dual():
    # one class {all of G}: the sum is |G| at the identity and 0 elsewhere
    table, m = checks.pairing_table([[2], [3]])
    dual = checks.dual_partition(table, m, np.zeros(6, dtype=np.int64))
    assert dual.tolist() == [0, 1, 1, 1, 1, 1]


def test_pk_count_matches_pairwise_count():
    for q, n, k in [(2, 5, 3), (3, 4, 2), (2, 6, 4)]:
        coords = [[q]] * n
        gamma = checks.induced_partition(coords, {"type": "pk", "k": k})
        table, m = checks.pairing_table(coords)
        assert checks.num_classes(checks.dual_partition(table, m, gamma)) == checks.pk_dual_class_count(q, n, k)


def test_covering_and_poset_weights():
    assert checks.min_cover([[0, 1], [1, 2], [2, 3]], 0b1111) == 2
    assert checks.min_cover([[0, 1], [1, 2], [2, 3]], 0b0110) == 1
    assert checks.down_closure(3, [[0, 1], [1, 2]]) == [0b001, 0b011, 0b111]
    weight = checks.weight_function({"type": "poset", "relations": [[0, 1]], "weights": ["1/2", "2", "3"]}, 3)
    assert weight(0b010) == Fraction(5, 2)  # the closure of {1} is {0, 1}
    assert weight(0b100) == 3


# -- codes and GL(n, p) ----------------------------------------------------------

HAMMING_7_4 = [
    [1, 0, 0, 0, 0, 1, 1],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 1, 1, 0],
    [0, 0, 0, 1, 1, 1, 1],
]


def test_macwilliams_identity_for_hamming_7_4():
    code = checks.code_words(HAMMING_7_4, 2)
    dual = checks.dual_code_words(HAMMING_7_4, 2, 7)
    assert np.bincount(code.sum(axis=1), minlength=8).tolist() == [1, 0, 0, 7, 7, 0, 0, 1]
    assert np.bincount(dual.sum(axis=1), minlength=8).tolist() == [1, 0, 0, 0, 7, 0, 0, 0]
    spec = {"op": "macwilliams", "p": 2, "blocks": [1] * 7, "rows": HAMMING_7_4, "gamma": "hamming"}
    good = json.dumps({"holds": True, "code_dim": 4, "dual_dim": 3})
    assert checks.check(spec, good) == []
    assert checks.check(spec, json.dumps({"holds": False, "code_dim": 4, "dual_dim": 3}))
    assert checks.check(spec, json.dumps({"holds": True, "code_dim": 3, "dual_dim": 4}))


def test_gl_counts():
    assert checks.gl_order(3, 2) == 168
    assert checks.gl_order(2, 3) == 48
    # k = n keeps only {0} and the rest: all of GL; Hamming weight: permutations
    assert checks.pk_invariant_maps(3, 2, 3) == 168
    assert checks.pk_invariant_maps(3, 2, 1) == 6
    assert checks.pk_invariant_maps(3, 2, 2) == 24
    # monomial matrices preserve Hamming weight over F_3: 2^2 * 2!
    assert checks.pk_invariant_maps(2, 3, 1) == 8


# -- the per-operation checks reject wrong outputs ---------------------------------

def _dual_report(**over):
    out = {"gamma_classes": 4, "dual_classes": 4, "reflexive": True, "verdict": "reflexive", "bidual_classes": 4, "bidual_equals_gamma": True}
    out.update(over)
    return json.dumps(out)


def test_check_dual_on_hamming():
    spec = {"op": "dual", "coords": [[2]] * 3, "partition": {"type": "hamming"}}
    assert checks.check(spec, _dual_report()) == []
    assert checks.check(spec, _dual_report(dual_classes=5, reflexive=False, verdict="non-reflexive"))
    assert checks.check(spec, _dual_report(reflexive=False))
    assert checks.check(spec, _dual_report(bidual_classes=5))


def test_check_scan_co():
    head = "q\tn\tk\tverdict\tcriterion\tco_classes\tlambda_lower_bound\tbrute_force_confirmed\n"
    # (Z/2)^3: k = 1, 2, 3 are all reflexive; |l(CO)| = 4, 3, 2
    rows = ["2\t3\t1\treflexive\tc\t4\t4\tyes", "2\t3\t2\treflexive\tc\t3\t3\tyes", "2\t3\t3\treflexive\tc\t2\t2\tyes"]
    spec = {"op": "scan-co", "q": 2, "n_lo": 3, "n_hi": 3}
    assert checks.check(spec, head + "\n".join(rows) + "\n") == []
    wrong = rows[:1] + ["2\t3\t2\tnon-reflexive\tc\t3\t3\tyes"] + rows[2:]
    assert checks.check(spec, head + "\n".join(wrong) + "\n")
    unconfirmed = rows[:2] + ["2\t3\t3\treflexive\tc\t2\t2\tno"]
    assert checks.check(spec, head + "\n".join(unconfirmed) + "\n")
    assert checks.check(spec, head + "\n".join(rows[:2]) + "\n")


def test_check_krawtchouk_roots():
    # K_2 for n = 4, q = 2 is 2x^2 - 8x + 6 = 2(x - 1)(x - 3): exact roots
    spec = {"op": "krawtchouk", "n": 4, "k": 2, "q": 2}
    out = {
        "coefficients": ["6", "-8", "2"],
        "values": [checks.kraw(4, 2, 2, s) for s in range(5)],
        "roots": [{"lo": "1", "hi": "1"}, {"lo": "3", "hi": "3"}],
    }
    assert checks.check(spec, json.dumps(out)) == []
    shifted = dict(out, roots=[{"lo": "1/2", "hi": "1/2"}, {"lo": "3", "hi": "3"}])
    assert checks.check(spec, json.dumps(shifted))
    wide = dict(out, roots=[{"lo": "1/2", "hi": "3/2"}, {"lo": "3", "hi": "3"}])
    assert checks.check(spec, json.dumps(wide))
    assert checks.check(spec, json.dumps(dict(out, roots=out["roots"][:1])))


def test_check_refute_witness():
    spec = {"op": "refute", "q": 2, "n": 3, "k": 2}
    # CO((Z/2)^3, P(2)) has 3 classes and 3 dual classes: reflexive; the
    # maps keeping its classes are the 168 / 7 = 24 that fix (1, 1, 1)
    base = {
        "criteria": {"co_classes": 3},
        "brute_force": {"dual_classes": 3, "reflexive": True},
        "witness_search": {"inv_order": 24, "delta_classes": 3, "witness": None},
        "refuted": False,
    }
    assert checks.check(spec, json.dumps(base)) == []
    bad_order = dict(base, witness_search=dict(base["witness_search"], inv_order=5))
    assert checks.check(spec, json.dumps(bad_order))
    split = {"alpha": [1, 0, 0], "beta": [1, 1, 1], "inv_order": 24}
    bad_witness = dict(base, refuted=True, witness_search=dict(base["witness_search"], witness=split))
    assert checks.check(spec, json.dumps(bad_witness))


# -- span recorder -------------------------------------------------------------------

def test_spans_wrap_every_binding_and_add_up():
    sys.path.insert(0, str(SRC))
    try:
        from dualpart import cli, krawtchouk, partitions  # noqa: F401  (cli imports krawtchouk lazily)
    finally:
        sys.path.remove(str(SRC))
    original = partitions.induce_CO
    rec = spans.Recorder()
    restore = spans.install(rec, spans.package_modules())
    try:
        # cli binds induce_CO by name; both bindings must reach the wrapper
        assert cli.induce_CO is partitions.induce_CO is not original
        rec.begin_op(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["scan-co", "--q", "2", "--n", "4", "--k", "2"]) == 0
        agg = rec.end_op()
    finally:
        restore()
    assert partitions.induce_CO is original and cli.induce_CO is original
    names = {s[0] for s in agg["spans"]}
    assert {"cli.main", "cli.cmd_scan_co", "partitions.induce_CO", "partitions.DualityContext.__init__", "krawtchouk.co_nonreflexivity_verdict"} <= names
    top = [s for s in agg["spans"] if s[3] < 0]
    assert [s[0] for s in top] == ["cli.main"]
    assert sum(agg["self_ns"].values()) == agg["top_ns"] == top[0][2] - top[0][1]
    assert agg["pair_table_bytes"] == 16 * 16 * 2
    assert agg["counts"]["groups.elements"] >= 16
