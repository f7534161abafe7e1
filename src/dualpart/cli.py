"""Command-line surface: poset reports, dual-partition computation, covering
scans, Krawtchouk evaluation, MacWilliams verification and conjecture
refutation reports.

JSON for single verdicts, TSV for scans.  Every error path exits non-zero
with a single-line machine-parsable reason code on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .config import DEFAULT_CONFIG, DualpartError, InputError, RunConfig
from .groups import build_group_product
from .metrics import WeightFunction, covering_from_members, pk_covering
from .posets import (
    automorphism_group,
    ideal_masks,
    is_hierarchical,
    udp_check,
    validate_and_close,
)
from .partitions import (
    DualityContext,
    induce_CO,
    induce_Q,
    reflexivity_check,
    theorem32_check,
)

BUDGET_ENV = "DUALPART_BUDGET"


def _load_config() -> RunConfig:
    path = os.environ.get(BUDGET_ENV)
    if not path:
        return DEFAULT_CONFIG
    overrides = _read_json(path)
    if not isinstance(overrides, dict):
        raise InputError(f"budget file {path} must hold a JSON object")
    bad = set(overrides) - {f.name for f in dataclasses.fields(RunConfig)}
    if bad:
        raise InputError(f"unknown budget keys: {sorted(bad)}")
    return dataclasses.replace(DEFAULT_CONFIG, **overrides)


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON in {path}: line {e.lineno}: {e.msg}") from None
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8, or too long an integer
        raise InputError(f"cannot read {path}: {e}") from None


def _json_default(obj):
    """What the json encoder cannot write itself: a Fraction as an int when
    integral and as "p/q" otherwise, a set as its sorted list, a numpy
    value or array by ``tolist``."""
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else int(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(payload) -> None:
    """One JSON line, keys sorted.  Payload dict keys are str: under
    ``sort_keys`` json would order int keys by value, not as text."""
    print(json.dumps(payload, sort_keys=True, default=_json_default))


def _json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer.  json reads true and false as
    bools, which Python counts as ints; int() would read 4.9 and "4" as 4."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputError(f"{what} must be an integer, got {json.dumps(value)}")


def _doc_size(doc: dict, kind: str) -> int:
    """The ground-set size "n" of a poset or covering document, read before
    anything of that size is built."""
    try:
        n = doc["n"]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad {kind} JSON: {e}") from None
    return _json_int(n, f"bad {kind} JSON: n")


def _fraction(text: str) -> Fraction:
    """``Fraction(text)``, refused first when Fraction would compute 10^e for
    an exponent e past the JSON reader's digit limit on integer literals."""
    exponent = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
    if exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent[1])):
        raise InputError("bad weights: a decimal exponent past the int digit limit")
    return Fraction(text)


def _parse_poset_json(doc: dict, n: int):
    what = "bad poset JSON: relation entry"
    try:
        relations = [(_json_int(u, what), _json_int(v, what)) for u, v in doc.get("relations", [])]
    except (TypeError, ValueError) as e:
        raise InputError(f"bad poset JSON: {e}") from None
    p = validate_and_close(n, relations)
    omega = None
    if "weights" in doc:
        # a string as Fraction reads it ("1/2", "1e-30"), or a JSON integer:
        # Fraction would take true as 1 and 0.1 as a binary fraction
        what = "bad weights: a weight that is not a string"
        try:
            values = [doc["weights"][str(i)] for i in range(n)]
            omega = WeightFunction(
                tuple(_fraction(w) if isinstance(w, str) else Fraction(_json_int(w, what)) for w in values)
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as e:
            raise InputError(f"bad weights: {e}") from None
    return p, omega


def _parse_group_doc(doc: dict):
    try:
        coords = doc["coordinates"]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad group JSON: {e}") from None
    return build_group_product(coords)


def _resolve_partition(group, spec: str, config: RunConfig):
    """Partition spec: 'hamming', 'Pk:K', or a JSON file holding either a
    poset (weight partition) or a covering (covering-weight partition)."""
    if spec == "hamming":
        return induce_CO(group, pk_covering(1, group.n), config)
    if spec.startswith("Pk:"):
        try:
            k = int(spec[3:])
        except ValueError:
            raise InputError(f"bad covering token {spec!r}") from None
        return induce_CO(group, pk_covering(k, group.n), config)
    doc = _read_json(spec)
    if not isinstance(doc, dict):
        raise InputError(f"{spec}: JSON must be an object, not {type(doc).__name__}")
    if "relations" in doc:
        kind = "poset"
    elif "members" in doc:
        kind = "covering"
    else:
        raise InputError(f"{spec}: JSON has neither 'relations' nor 'members'")
    n = _doc_size(doc, kind)
    if n != group.n:
        raise InputError(f"{kind} size {n} differs from the group's coordinate count {group.n}")
    if kind == "poset":
        p, omega = _parse_poset_json(doc, n)
        if omega is None:
            omega = WeightFunction.constant(n)
        return induce_Q(group, p, omega, config)
    try:
        t = covering_from_members(n, doc["members"])
    except (TypeError, ValueError) as e:
        raise InputError(f"bad covering JSON: {e}") from None
    return induce_CO(group, t, config)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_poset(args) -> int:
    config = _load_config()
    doc = _read_json(args.file)
    n = _doc_size(doc, "poset")
    # udp_check's own cap, checked before the closure costs O(n^2)
    config.check("aut_cap_n", n, "poset size for the UDP check")
    p, omega = _parse_poset_json(doc, n)
    if omega is None:
        omega = WeightFunction.constant(p.n)
    aut_order, gens = automorphism_group(p, omega.values, config)
    udp_ok, udp_witness = udp_check(p, omega.values, gens, config)
    report = {
        "n": p.n,
        "hierarchical": is_hierarchical(p),
        "udp": udp_ok,
        "udp_witness": udp_witness,
        "aut_order": aut_order,
        "ideal_count": len(ideal_masks(p, config)),
    }
    if "coordinates" in doc:
        group = _parse_group_doc(doc)
        if group.n != p.n:
            raise InputError("group coordinate count differs from poset size")
        if report["hierarchical"] and omega.is_integer_valued():
            report["theorem32"] = theorem32_check(group, p, omega, udp_ok, config)
        else:
            report["theorem32"] = None
            report["theorem32_skipped"] = (
                "requires a hierarchical poset with integer weights"
            )
    _emit(report)
    return 0


def cmd_dual(args) -> int:
    config = _load_config()
    group = _parse_group_doc(_read_json(args.group))
    gamma = _resolve_partition(group, args.partition, config)
    ctx = DualityContext(group, config)
    report = reflexivity_check(ctx, gamma, compute_bidual=True)
    if args.export:
        report["gamma"] = gamma.export()
        report["dual"] = ctx.left_dual(gamma).export()
    _emit(report)
    return 0


def _parse_range(spec: str) -> range:
    if ".." in spec:
        a, b = spec.split("..", 1)
        try:
            lo, hi = int(a), int(b)
        except ValueError:
            raise InputError(f"bad range {spec!r}") from None
        if hi < lo:
            raise InputError(f"bad range {spec!r}: end below start")
        return range(lo, hi + 1)
    try:
        v = int(spec)
    except ValueError:
        raise InputError(f"bad range {spec!r}") from None
    return range(v, v + 1)


def cmd_scan_co(args) -> int:
    from .krawtchouk import co_nonreflexivity_verdict, dual_class_lower_bound, ku_distinct_counts
    from .partitions import co_profile_prefix_sums, co_reflexivity_bruteforce

    config = _load_config()
    n_range = _parse_range(args.n)
    try:
        k_only = None if args.k == "all" else int(args.k)
    except ValueError:
        raise InputError(f"bad k {args.k!r}: expected 'all' or an integer") from None
    if args.q < 2:
        raise InputError("q must be at least 2")
    # n only grows along the range, so its first value bounds every row
    if n_range[0] < 1:
        raise InputError("n must be positive")
    if k_only is not None and not 1 <= k_only <= n_range[0]:
        raise InputError(f"k = {k_only} out of range for n = {n_range[0]}")
    config.check("krawtchouk_cap_n", n_range[-1], "scan-co last n")
    print("q\tn\tk\tverdict\tcriterion\tco_classes\tlambda_lower_bound\tbrute_force_confirmed")
    for n in n_range:
        # the data of an n, read by every k; the criteria side and the
        # confirmation side share none of it
        distinct = ku_distinct_counts(n, args.q, config)
        prefix = co_profile_prefix_sums(args.q, n, config)
        ks = range(1, n + 1) if k_only is None else [k_only]
        for k in ks:
            v = co_nonreflexivity_verdict(n, k, args.q, distinct)
            bound = dual_class_lower_bound(n, k, args.q, distinct)
            if v["verdict"] == "undecided-by-criteria":
                confirmed = "skipped"
            else:
                brute = co_reflexivity_bruteforce(args.q, n, k, prefix)
                confirmed = (
                    "yes"
                    if brute["reflexive"] == (v["verdict"] == "reflexive")
                    else "no"
                )
            print(
                f"{args.q}\t{n}\t{k}\t{v['verdict']}\t{v['criterion']}\t"
                f"{v['co_classes']}\t{bound}\t{confirmed}"
            )
    return 0


def cmd_krawtchouk(args) -> int:
    from .krawtchouk import ku_build, ku_roots, ku_values

    config = _load_config()
    config.check("krawtchouk_cap_n", args.n, "krawtchouk --n")
    config.check("krawtchouk_cap_n", args.k, "krawtchouk --k")
    poly = ku_build(args.n, args.k, args.q, config)
    report = {
        "n": args.n,
        "k": args.k,
        "q": args.q,
        "coefficients": [str(c) for c in poly.coeffs],
    }
    values = None
    if args.n <= 200:
        values = report["values"] = ku_values(args.n, args.k, args.q)
    if args.roots:
        if args.k < 1:
            raise InputError("root isolation needs k >= 1")
        roots = ku_roots(args.n, args.k, args.q, config=config, _values=values)
        report["roots"] = [
            {"lo": str(lo), "hi": str(hi), "approx": float((lo + hi) / 2)}
            for lo, hi in roots
        ]
    _emit(report)
    return 0


def cmd_macwilliams(args) -> int:
    from .macwilliams import macwilliams_verify, parse_code_file

    config = _load_config()
    try:
        with open(args.code_file, encoding="utf-8") as fh:
            code = parse_code_file(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {args.code_file}: {e}") from None
    group = code.space.group
    gamma = _resolve_partition(group, args.gamma, config)
    ctx = DualityContext(group, config)
    lam = ctx.left_dual(gamma) if args.lam == "dual" else _resolve_partition(group, args.lam, config)
    report = macwilliams_verify(code, lam, gamma, ctx)
    report["gamma_spec"] = args.gamma
    report["lambda_spec"] = args.lam
    _emit(report)
    return 0


def cmd_refute(args) -> int:
    from .macwilliams import conjecture21_report

    config = _load_config()
    _emit(conjecture21_report(args.q, args.n, args.k, config))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument error leaves as an InputError, so it gets the one-line
    ``code: message`` exit of every other error instead of argparse's
    usage text and SystemExit."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: every call returns the
    same parser, and every parse makes a new namespace.  It holds command
    names, not functions: ``main`` looks ``cmd_*`` up at every call, so a
    name rebound after the first build (a tracer's wrapper, a test's patch)
    is the one that runs."""
    parser = _Parser(
        prog="dualpart",
        description="Dual partitions of abelian group products: reflexivity, "
        "Krawtchouk criteria and MacWilliams machinery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poset", help="poset report (hierarchy, UDP, equivalence checks)")
    p.add_argument("file")

    p = sub.add_parser("dual", help="dual partition and reflexivity of an induced partition")
    p.add_argument("group", help="group JSON file")
    p.add_argument("partition", help="'hamming', 'Pk:K', or poset/covering JSON file")
    p.add_argument("--export", action="store_true", help="include full class lists")

    p = sub.add_parser("scan-co", help="covering-partition verdict scan (TSV)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", required=True, help="range A..B or single value")
    p.add_argument("--k", default="all", help="'all' or a single k")

    p = sub.add_parser("krawtchouk", help="exact polynomial data and roots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--roots", action="store_true")

    p = sub.add_parser("macwilliams", help="verify the distribution identity for a code")
    p.add_argument("code_file")
    p.add_argument("--gamma", required=True)
    p.add_argument("--lambda", dest="lam", default="dual")

    p = sub.add_parser("refute", help="extension-property refutation report")
    p.add_argument("q", type=int)
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except DualpartError as e:
        print(f"{e.code}: {e}", file=sys.stderr)
        return 2
    except AssertionError as e:
        print(f"internal-error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
