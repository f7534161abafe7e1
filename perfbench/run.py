"""Benchmark of dualpart: time to all verdicts over a seeded instance list.

    python3 perfbench/run.py --workload dual-induced --seed 1 --seconds 15 --trace 0

One workload runs in this process, on one thread, in a closed loop: each
operation starts when the previous one has returned.  CLI operations run
through ``dualpart.cli.main`` with stdout captured; the rest call the
library function the CLI would call.  Set-up (imports, instance
generation, one warm-up pass) is done three times, each in a fresh
interpreter: once in this process and twice in a child process started with
``--setup-only``.  Then whole rounds over the instance list run until
``--seconds`` have passed (at least three rounds).  Outputs are checked
afterwards, by ``checks.py``, outside every metric.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
every public dualpart callable is wrapped (``spans.py``) and the metrics
are per-layer self times and work counts.  The last line of stdout is one
JSON object; a record of the run, with the raw wall times, goes to
``.perfbench/results/``.

Times are reported in reference units: a fixed pure-Python loop is timed
after every operation, and every time is divided by the median of that
loop over ``REFERENCE_MS``, taken over the timed loop for the timed metrics
and over each set-up's own warm-up pass for that set-up.  The speed of a
shared machine for interpreted code can drift by 20-40% between runs
minutes apart; the loop drifts with it, so the quotient is what stays
comparable between runs.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3
SETUP_TIMEOUT_S = 150
MIN_ROUNDS = 3
# Times are reported as if reference_loop() took REFERENCE_MS (its median
# over the run divided by REFERENCE_MS is the run's slowdown).
REFERENCE_MS = 3.0
# all imported up front: cli imports krawtchouk and macwilliams lazily, and
# a module imported after spans.install would not be wrapped
MODULES = ("exactarith", "groups", "posets", "metrics", "partitions", "krawtchouk", "macwilliams", "cli")
LAYERS = ("cli", "exactarith", "groups", "posets", "metrics", "partitions", "krawtchouk", "macwilliams")

# per-layer time metric -> the spans whose self times it sums
LAYER_TIMES = {
    "groups.residue_matrix_ms": ("groups.GroupProduct.residue_matrix",),
    "posets.automorphisms_ms": ("posets.automorphisms",),
    "posets.ideals_ms": ("posets.ideals", "posets.ideal_masks"),
    "metrics.covering_weight_ms": ("metrics.covering_weight", "metrics.Covering.weight"),
    "partitions.context_ms": ("partitions.DualityContext.__init__",),
    "partitions.induce_ms": ("partitions.induce_Q", "partitions.induce_CO", "partitions.induce_from_ideal_classes"),
    "partitions.left_dual_ms": ("partitions.DualityContext.left_dual",),
    "partitions.right_dual_ms": ("partitions.DualityContext.right_dual",),
    "partitions.theorem_ms": ("partitions.theorem32_check", "partitions.theorem41_check"),
    "partitions.bruteforce_ms": (
        "partitions.co_reflexivity_bruteforce",
        "partitions.co_dual_class_count",
        "partitions.co_support_signature",
        "partitions.hamming_sum_profile",
        "partitions.pk_covering_local",
    ),
    "partitions.identity_ms": (
        "partitions.macwilliams_identity_holds",
        "partitions.krawtchouk_matrix",
        "partitions.DualityContext.signature",
        "partitions.DualityContext.annihilator",
    ),
    "krawtchouk.build_ms": ("krawtchouk.ku_build",),
    "krawtchouk.eval_ms": ("krawtchouk.ku_eval",),
    "krawtchouk.roots_ms": ("krawtchouk.ku_roots", "krawtchouk.isolate_real_roots", "krawtchouk.ku_derivative_roots"),
    "krawtchouk.verdict_ms": (
        "krawtchouk.co_nonreflexivity_verdict",
        "krawtchouk.dual_class_lower_bound",
        "krawtchouk.smallest_root_floor",
        "krawtchouk.derivative_smallest_root_floor",
        "krawtchouk.thm42_threshold",
    ),
    "macwilliams.inv_enumerate_ms": ("macwilliams.inv_enumerate",),
    "macwilliams.orbit_ms": ("macwilliams.orbit_partition", "macwilliams.apply_map_indices"),
    "macwilliams.codewords_ms": ("macwilliams.LinearCode.codeword_indices",),
}

# per-layer count metric -> ("calls", span name) or ("counts", counter key)
LAYER_COUNTS = {
    "groups.elements": ("counts", "groups.elements"),
    "partitions.left_duals": ("calls", "partitions.DualityContext.left_dual"),
    "partitions.labels_built": ("counts", "partitions.labels_built"),
    "exactarith.cycint_built": ("counts", "exactarith.cycint_built"),
    "krawtchouk.builds": ("calls", "krawtchouk.ku_build"),
    "krawtchouk.eval_calls": ("calls", "krawtchouk.ku_eval"),
    "macwilliams.inv_maps": ("counts", "macwilliams.inv_maps"),
    "macwilliams.subspaces": ("counts", "macwilliams.subspaces"),
}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def load_dualpart():
    """Every dualpart module, checked to come from this checkout."""
    mods = types.SimpleNamespace()
    for name in MODULES:
        setattr(mods, name, importlib.import_module(f"dualpart.{name}"))
    origin = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"dualpart imported from {origin}, not from {SRC}")
    return mods


def dense_op(spec, mods):
    group = mods.groups.build_group_product(spec["coords"])
    gamma = mods.partitions.Partition(spec["class_ids"], host=group)
    ctx = mods.partitions.DualityContext(group)
    return json.dumps(mods.partitions.reflexivity_check(ctx, gamma, compute_bidual=True), sort_keys=True)


def admits_op(spec, mods):
    space = mods.macwilliams.PrimeFieldSpace(spec["p"], (1,) * spec["n"])
    covering = mods.metrics.covering_from_members(spec["n"], spec["members"])
    gamma = mods.partitions.induce_CO(space.group, covering)
    lam = mods.partitions.DualityContext(space.group).left_dual(gamma)
    return json.dumps(mods.macwilliams.macwilliams_admits(space, lam, gamma), sort_keys=True)


LIBRARY_OPS = {"dense": dense_op, "admits": admits_op}


def execute(spec, mods):
    """Run one operation; its output text, or an exception."""
    if "argv" not in spec:
        return LIBRARY_OPS[spec["op"]](spec, mods)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mods.cli.main(list(spec["argv"]))
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def reference_loop():
    """A fixed pure-Python loop, timed after every operation: its median in
    a run measures the machine's speed for interpreted code in that run."""
    s = 0
    for i in range(30000):
        s += i * i % 7
    return s


def time_reference_loop():
    t0 = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - t0


def slowdown_of(reference_ns):
    return statistics.median(reference_ns) / 1e6 / REFERENCE_MS


def attempt(spec, mods):
    """(output or None, error or None); the benchmark keeps running."""
    try:
        return execute(spec, mods), None
    except Exception as e:  # reported as a failed operation
        return None, f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

class LayerTotals:
    """Per-round sums of self times and counts from the traced run."""

    def __init__(self):
        self.rounds = []
        self.pair_table_bytes = 0
        self.first_round_spans = []

    def new_round(self):
        self.rounds.append(
            {"self_ns": collections.Counter(), "calls": collections.Counter(), "counts": collections.Counter(), "bench_ns": 0, "op_ns": 0}
        )

    def add(self, agg, op_ns):
        r = self.rounds[-1]
        r["self_ns"].update(agg["self_ns"])
        r["calls"].update(agg["calls"])
        r["counts"].update(agg["counts"])
        r["bench_ns"] += op_ns - agg["top_ns"]
        r["op_ns"] += op_ns
        self.pair_table_bytes = max(self.pair_table_bytes, agg["pair_table_bytes"])
        if len(self.rounds) == 1:
            self.first_round_spans.append(agg["spans"])

    def metrics(self, solve_s, slowdown):
        def median(fn):
            return statistics.median(fn(r) for r in self.rounds)

        def span_ms(r, names):
            return sum(r["self_ns"][n] for n in names) / 1e6 / slowdown

        def layer_ms(r, layer):
            return sum(v for n, v in r["self_ns"].items() if n.split(".")[0] == layer) / 1e6 / slowdown

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (median(lambda r: layer_ms(r, layer)), "ms")
        out["bench.self_ms"] = (median(lambda r: r["bench_ns"] / 1e6 / slowdown), "ms")
        for name, names in LAYER_TIMES.items():
            out[name] = (median(lambda r: span_ms(r, names)), "ms")
        for name, (kind, key) in LAYER_COUNTS.items():
            out[name] = (median(lambda r: r[kind][key]), "count")
        out["partitions.pair_table_mib"] = (self.pair_table_bytes / 2**20, "MiB")
        out["traced.solve_s"] = (solve_s, "s")
        return out

    def bench_share(self):
        """Median per-round share of the traced operation time spent
        outside every span: what the spans do not cover."""
        return statistics.median(r["bench_ns"] / r["op_ns"] for r in self.rounds)

    def per_span(self):
        """Median per-round self time and calls of every span name."""
        names = sorted(set().union(*(r["self_ns"] for r in self.rounds)))
        return {
            n: {
                "self_ms": statistics.median(r["self_ns"][n] for r in self.rounds) / 1e6,
                "calls": statistics.median(r["calls"][n] for r in self.rounds),
            }
            for n in names
        }


def setup(args, workdir):
    """One cold set-up, timed from interpreter start: imports, instance
    generation and a warm-up pass over every instance.  The reference loop
    runs after each warm-up operation; its time is left out of the sample
    and its median gives this set-up's own slowdown."""
    mods = load_dualpart()
    specs = workloads.build(args.workload, args.seed, workdir)
    reference, reference_ns = [], []
    for spec in specs:
        reference.append(attempt(spec, mods))
        reference_ns.append(time_reference_loop())
    wall_s = time.perf_counter() - T_START - sum(reference_ns) / 1e9
    return mods, specs, reference, {"wall_s": wall_s, "slowdown": slowdown_of(reference_ns)}


def setup_in_child(args):
    """The same set-up in a fresh interpreter, so that every import is cold
    again; returns its sample."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(
        argv + ["--seconds", "0", "--setup-only"], capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def timed_loop(args, mods, specs, reference, layers):
    times = [[] for _ in specs]
    reference_ns = []
    errors, mismatched = {}, set()
    rec = restore = None
    if layers is not None:
        rec = spans.Recorder()
        restore = spans.install(rec, spans.package_modules())
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    try:
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            gc.collect()
            if layers is not None:
                layers.new_round()
            for i, spec in enumerate(specs):
                if rec is not None:
                    rec.begin_op(rounds * len(specs) + i)
                t0 = time.perf_counter_ns()
                text, error = attempt(spec, mods)
                dt = time.perf_counter_ns() - t0
                times[i].append(dt)
                if error is not None:
                    errors.setdefault(i, error)
                elif text != reference[i][0]:
                    mismatched.add(i)
                if rec is not None:
                    layers.add(rec.end_op(), dt)
                reference_ns.append(time_reference_loop())
            rounds += 1
    finally:
        if restore is not None:
            restore()
    return times, reference_ns, errors, mismatched, rounds


def judge(specs, reference, errors, mismatched):
    """Check every output that was produced; an instance fails if it
    raised, if its output changed between repetitions, or if its output
    failed a check.  Returns (problems, failed instances)."""
    for i, (_, error) in enumerate(reference):
        if error is not None:
            errors.setdefault(i, error)
    problems = {}
    for i, spec in enumerate(specs):
        if i in errors or i in mismatched:
            continue
        try:
            found = checks.check(spec, reference[i][0])
        except Exception as e:  # a checker crash is a failed check
            found = [f"check raised {type(e).__name__}: {e}"]
        if found:
            problems[i] = found
    return problems, set(errors) | mismatched | set(problems)


def run(args, workdir):
    mods, specs, reference, first_setup = setup(args, workdir)
    setup_samples = [first_setup] + [setup_in_child(args) for _ in range(SETUP_REPS - 1)]
    layers = LayerTotals() if args.trace else None
    times, reference_ns, errors, mismatched, rounds = timed_loop(args, mods, specs, reference, layers)
    slowdown = slowdown_of(reference_ns)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems, failed_ops = judge(specs, reference, errors, mismatched)
    attempted = rounds * len(specs)
    failed = rounds * len(failed_ops)

    all_ns = sorted(t for ts in times for t in ts)
    wall = {
        "setup_s": statistics.median(s["wall_s"] for s in setup_samples),
        "solve_s": sum(statistics.median(ts) for ts in times) / 1e9,
        "op_p50_ms": statistics.median(all_ns) / 1e6,
        "op_p90_ms": statistics.quantiles(all_ns, n=10)[-1] / 1e6,
    }
    solve_s = wall["solve_s"] / slowdown
    p90_ms = wall["op_p90_ms"] / slowdown
    if args.trace:
        metrics = layers.metrics(solve_s, slowdown)
    else:
        metrics = {
            "setup_s": (statistics.median(s["wall_s"] / s["slowdown"] for s in setup_samples), "s"),
            "solve_s": (solve_s, "s"),
            "op_p50_ms": (wall["op_p50_ms"] / slowdown, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "correct": not failed_ops,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "wall": wall,
        "reference_loop_ms": statistics.median(reference_ns) / 1e6,
        "slowdown": slowdown,
        "setup_samples": setup_samples,
        "op_p90_ms": p90_ms,
        "op_samples": len(all_ns),
        "instances": [
            {"name": s["name"], "median_ms": statistics.median(ts) / 1e6, "times_ms": [t / 1e6 for t in ts]}
            for s, ts in zip(specs, times)
        ],
        "errors": {specs[i]["name"]: e for i, e in errors.items()},
        "mismatched": [specs[i]["name"] for i in sorted(mismatched)],
        "problems": {specs[i]["name"]: p for i, p in problems.items()},
    }
    if args.trace:
        record["spans"] = layers.per_span()
        record["bench_share"] = layers.bench_share()
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if args.trace:
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for op in layers.first_round_spans:
                for span in op:
                    fh.write(json.dumps(span) + "\n")

    print(
        f"perfbench {args.workload} seed {args.seed}: attempted {attempted}, failed {failed}, "
        f"rounds {rounds}, solve_s {solve_s:.4f} (wall {wall['solve_s']:.4f}, slowdown {slowdown:.3f}), "
        f"op_p90_ms {p90_ms:.2f} (n={len(all_ns)})",
        file=sys.stderr,
    )
    for name, msg in list(record["errors"].items()) + [(n, "; ".join(p)) for n, p in record["problems"].items()]:
        print(f"perfbench {args.workload}: {name}: {msg}", file=sys.stderr)
    for name in record["mismatched"]:
        print(f"perfbench {args.workload}: {name}: output changed between runs", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its sample and exit")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dualpart" / "__init__.py").is_file():
        print(f"perfbench: no dualpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"inputs-{args.workload}-", dir=OUT)
    try:
        if args.setup_only:
            print(json.dumps(setup(args, workdir)[3]))
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
