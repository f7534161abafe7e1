"""Reachability guard: every function and method of ``src/dualpart`` is
entered by some golden CLI case, or is named in ``ALLOWED`` with the
reason it stays.

The golden cases run in-process under ``sys.setprofile``; a function
counts as reached when a frame of its code is entered.  Code that no
command reaches is either a library entry point (the README's library
table, or a call the benchmark makes directly), an error path that
``tests/test_cli.py::TestErrorContract`` covers, or it belongs in
``tests/``: the paper's closed forms live in ``tests/paper.py`` and the
alternative engines in ``tests/oracles.py``.
"""

import contextlib
import importlib
import inspect
import io
import pkgutil
import sys
import types

import dualpart
from test_golden import CASES, run_case

# qualified name (module.function or module.Class.method) -> why it stays
ALLOWED = {
    # library entry points (README library overview)
    "exactarith.CycInt.__eq__": "CycInt value: labels compare by value",
    "exactarith.CycInt.__hash__": "CycInt value: hashed by modulus and coordinates",
    "exactarith.CycInt.__setattr__": "CycInt value: the immutability guard",
    "exactarith._cyclotomic_coeffs": "Phi_m, read only by the pairwise engine's fold (_coords)",
    "groups.GroupProduct.residue_matrix": "library entry point (README): every element's residues in index order",
    "krawtchouk.KrawtchoukPoly.__call__": "library entry point: evaluation at a rational point",
    "krawtchouk.KrawtchoukPoly.degree": "library entry point",
    "macwilliams.PrimeFieldSpace.all_vectors": "library entry point: the vectors of the space in index order",
    "metrics.WeightFunction.from_mapping": "library entry point: weights from a {coordinate: value} mapping",
    "partitions.Partition.from_keys": "library entry point: a partition from per-element keys",
    "partitions.SignatureLabels.__eq__": "library entry point: labels compare with lists of CycInt tuples",
    "partitions.induce_from_ideal_classes": "library entry point (README)",
    "posets.antichain": "library entry point, exported by the package",
    "posets.chain": "library entry point, exported by the package",
    # production paths that no golden input takes
    "metrics.WeightFunction.constant": "dual and poset: a poset document without weights",
    "partitions.DualityContext._classes": "the pairwise engine's evaluation at a split prime (dual-dense workload)",
    "partitions.DualityContext._coords": "the pairwise engine's fold: left_dual or right_dual of a partition without twin blocks, a library call",
    "partitions.DualityContext._dual": "the pairwise engine's labelled dual: left_dual or right_dual of a partition without twin blocks, a library call",
    "partitions.DualityContext._evaluation": "the pairwise engine's evaluation set-up (dual-dense workload)",
    "partitions.DualityContext._unit_index": "the pairwise engine's unit gather, for class sums that tie at omega",
    "partitions.DualityContext._number": "the pairwise engine's numbering and labels: a labelled dual of a partition without twin blocks, a library call",
    "partitions._split_prime": "the pairwise engine's evaluation prime (dual-dense workload)",
    "partitions.DualityContext.exponents": "the pairwise engine's pairing table (dual-dense workload)",
    "partitions._form_table": "the pairwise engine's pairing table (dual-dense workload)",
    "macwilliams.macwilliams_admits": "the all-codes statement, called directly by the codes workload",
    "macwilliams._subspace_count": "macwilliams_admits: its budget check",
    "macwilliams._subspace_blocks": "macwilliams_admits: the codes in blocks",
    "macwilliams._codes_per_block": "macwilliams_admits: the block size",
    "macwilliams._span": "macwilliams_admits: the words of the codes and of their duals",
    "macwilliams._distributions": "macwilliams_admits: the class counts of each code's words",
    "macwilliams._distribution_clash": "macwilliams_admits: the first clash",
    "macwilliams._basis": "macwilliams_admits: the witness basis",
    "macwilliams._zero_is_singleton": "macwilliams_admits: the zero-class condition",
    # error paths (tests/test_cli.py::TestErrorContract)
    "cli._Parser.error": "argument errors",
    "config.RunConfig.__post_init__": "budget overrides; DEFAULT_CONFIG is built at import, before the profile",
    "partitions.Partition.finer_violation": "macwilliams with a lambda not finer than l(gamma)",
}


def _defined(mod):
    """(filename, first line, name) -> qualified name, for every def in the
    module's source, nested defs included; lambdas, comprehensions and
    class bodies are not functions."""
    out = {}
    with open(mod.__file__, encoding="utf-8") as fh:
        code = compile(fh.read(), mod.__file__, "exec")

    def walk(co, prefix):
        for const in co.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            qual = f"{prefix}.{const.co_name}"
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                out[(const.co_filename, const.co_firstlineno, const.co_name)] = qual
            walk(const, qual)

    walk(code, mod.__name__.split(".", 1)[1])
    return out


def _modules():
    return [
        importlib.import_module(f"dualpart.{info.name}")
        for info in pkgutil.iter_modules(dualpart.__path__)
        if info.name != "__main__"
    ]


def test_every_function_is_reached_or_allowed():
    defined = {}
    for mod in _modules():
        defined.update(_defined(mod))
        # a cached function answered by an earlier test is never entered
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            co = frame.f_code
            entered.add((co.co_filename, co.co_firstlineno, co.co_name))

    sys.setprofile(profile)
    try:
        for argv in CASES.values():
            with contextlib.redirect_stdout(io.StringIO()):
                run_case(argv)
    finally:
        sys.setprofile(None)
    unreached = sorted(qual for key, qual in defined.items() if key not in entered)
    assert [q for q in unreached if q not in ALLOWED] == []
    # an allowlist entry for a name that is gone, or is reached, is stale
    assert sorted(q for q in ALLOWED if q not in unreached) == []
