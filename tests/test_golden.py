"""Byte-for-byte CLI outputs on fixed inputs.

Each case runs one ``dualpart`` command on the input files in
``tests/golden/`` and compares its stdout with ``tests/golden/<case>.out``.
To rewrite the expected files after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
from pathlib import Path

import pytest

from dualpart.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "dual-mixed-hamming": ["dual", "group_mixed.json", "hamming"],
    "dual-mixed-pk2": ["dual", "group_mixed.json", "Pk:2"],
    "dual-mixed-rational-poset-export": ["dual", "group_mixed.json", "poset_mixed_rational.json", "--export"],
    "dual-z2-covering-export": ["dual", "group_z2_6.json", "covering_z2_6.json", "--export"],
    "dual-z2-pk3-export": ["dual", "group_z2_5.json", "Pk:3", "--export"],
    "dual-z3-poset": ["dual", "group_z3_4.json", "poset_v.json"],
    "dual-z3-poset-export": ["dual", "group_z3_4.json", "poset_v.json", "--export"],
    "dual-z3-huge-weight-export": ["dual", "group_z3_4.json", "poset_huge_weight.json", "--export"],
    "dual-z4z6-pk2-export": ["dual", "group_z4_z6.json", "Pk:2", "--export"],
    # |G| = 2^28 and 2^64, never listed; above 2^62 the sums are Python ints
    "dual-z16-7-pk2": ["dual", "group_z16_7.json", "Pk:2"],
    "dual-z2-64-pk2": ["dual", "group_z2_64.json", "Pk:2"],
    "poset-hier": ["poset", "poset_hier.json"],
    "poset-v": ["poset", "poset_v.json"],
    # n = aut_cap_n: Aut(P, omega) has order 5! 7! and is never listed
    "poset-antichain12": ["poset", "poset_antichain12.json"],
    # a UDP witness under a non-trivial group: {0, 1} and {2} weigh 2
    "poset-antichain4": ["poset", "poset_antichain4.json"],
    "scan-co-q2": ["scan-co", "--q", "2", "--n", "3..9", "--k", "all"],
    "scan-co-q3": ["scan-co", "--q", "3", "--n", "3..5", "--k", "all"],
    "scan-co-q2-wide": ["scan-co", "--q", "2", "--n", "10..30", "--k", "all"],
    "scan-co-q5": ["scan-co", "--q", "5", "--n", "4..14", "--k", "all"],
    # every row has a lambda_lower_bound and a confirmation, past n = 40
    # and n = 64 too
    "scan-co-q2-bound-cut": ["scan-co", "--q", "2", "--n", "39..41", "--k", "all"],
    "scan-co-q3-confirm-cut": ["scan-co", "--q", "3", "--n", "63..65", "--k", "all"],
    "krawtchouk-roots": ["krawtchouk", "--n", "12", "--k", "4", "--q", "3", "--roots"],
    "macwilliams-p3": ["macwilliams", "code_p3.txt", "--gamma", "hamming", "--lambda", "dual"],
    # Hamming (6 classes) is strictly finer than l(Pk:3) (4 classes)
    "macwilliams-p3-pk3-hamming": ["macwilliams", "code_p3.txt", "--gamma", "Pk:3", "--lambda", "hamming"],
    "macwilliams-p2-blocks": ["macwilliams", "code_p2_blocks.txt", "--gamma", "Pk:2", "--lambda", "dual"],
    "refute-2-4-2": ["refute", "2", "4", "2"],
    "refute-2-4-3": ["refute", "2", "4", "3"],
    "refute-2-4-4": ["refute", "2", "4", "4"],
    "refute-2-5-2": ["refute", "2", "5", "2"],
    "refute-2-5-3": ["refute", "2", "5", "3"],
    "refute-3-3-2": ["refute", "3", "3", "2"],
    "refute-3-3-3": ["refute", "3", "3", "3"],
}


def run_case(argv) -> bytes:
    argv = [str(GOLDEN / a) if (GOLDEN / a).is_file() else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue().encode()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case):
    assert run_case(CASES[case]) == (GOLDEN / f"{case}.out").read_bytes()


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("macwilliams")))
def test_macwilliams_builds_no_cycint(case, monkeypatch):
    # the identity is one integer product of label rows
    from dualpart.exactarith import CycInt

    def refuse(self, *args):
        raise AssertionError("CycInt built")

    monkeypatch.setattr(CycInt, "__init__", refuse)
    assert run_case(CASES[case]) == (GOLDEN / f"{case}.out").read_bytes()


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.out").write_bytes(run_case(argv))
