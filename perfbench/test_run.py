"""Tests of the run's verdict: an operation that produced no output, or a
wrong one, makes ``correct`` false.  Run with ``python3 -m pytest perfbench``."""

import contextlib
import io
import json

import pytest

import run


def _broken_execute(spec, mods):
    raise RuntimeError("injected fault")


def _wrong_execute(spec, mods):
    return "not an output of dualpart\n"


@pytest.mark.parametrize("execute", [_broken_execute, _wrong_execute])
def test_failed_operations_make_the_run_incorrect(execute, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "execute", execute)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPS", 1)  # no child set-ups: they would not see the fault
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(["--workload", "criteria", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
