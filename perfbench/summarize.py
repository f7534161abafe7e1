"""Summarize sets of benchmark runs.

    python3 perfbench/summarize.py DIR [DIR2]

Each DIR holds the ``<workload>-seed<n>-trace<t>.json`` records that
``run.py`` writes to ``.perfbench/results/``.  For every workload and
end-to-end metric it prints the median, the quartiles and the quartile
spread as a share of the median, as ``statistics.quantiles(values, n=4)``
gives them; with a second DIR, also the shift of the second median against
the first.  The same table follows for the raw wall times.  It then prints
the p90 reference figure, the per-layer medians of the traced runs, the
tracing overhead of ``solve_s`` and the share of traced operation time that
no span covers (``bench.self_ms``).
"""

import json
import statistics
import sys
from pathlib import Path

END_TO_END = ("setup_s", "solve_s", "op_p50_ms", "peak_rss_mib")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        rec = json.loads(path.read_text())
        runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def spread_table(sets, workloads, key, metrics):
    print("| workload | metric | set | runs | median | q1 | q3 | spread | shift |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        for metric in metrics:
            first = None
            for i, s in enumerate(sets, 1):
                values = [r[key][metric] for r in s.get((w, 0), [])]
                if len(values) < 2:
                    continue
                med, q1, q3 = quartiles(values)
                shift = "" if first is None else f"{med / first - 1:+.1%}"
                first = med if first is None else first
                print(f"| {w} | {metric} | {i} | {len(values)} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.1%} | {shift} |")
    print()


def main(argv):
    sets = [load(d) for d in argv]
    workloads = sorted({w for s in sets for (w, t) in s if t == 0})
    spread_table(sets, workloads, "metrics", END_TO_END)
    print("Raw wall times of the same runs:")
    print()
    spread_table(sets, workloads, "wall", ("setup_s", "solve_s", "op_p50_ms"))
    print("| workload | set | runs | failed / attempted | op_p90_ms (median) | samples per run |")
    print("| --- | --- | --- | --- | --- | --- |")
    for w in workloads:
        for i, s in enumerate(sets, 1):
            runs = s.get((w, 0), [])
            if runs:
                p90 = statistics.median(r["op_p90_ms"] for r in runs)
                samples = sorted({r["op_samples"] for r in runs})
                failed = sum(r["failed"] for r in runs)
                attempted = sum(r["attempted"] for r in runs)
                print(f"| {w} | {i} | {len(runs)} | {failed} / {attempted} | {p90:.4g} | {samples[0]}-{samples[-1]} |")
    traced = {w: s[(w, 1)] for s in sets for (w, t) in s if t == 1}
    if not traced:
        return 0
    names = sorted({m for runs in traced.values() for r in runs for m in r["metrics"]})
    cols = sorted(traced)
    print()
    print("| per-layer metric | " + " | ".join(cols) + " |")
    print("| --- |" + " --- |" * len(cols))
    for name in names:
        cells = []
        for w in cols:
            values = [r["metrics"][name] for r in traced[w]]
            cells.append(f"{statistics.median(values):.4g}")
        print(f"| {name} | " + " | ".join(cells) + " |")
    print()
    print("| workload | traced solve_s | untraced solve_s | tracing overhead | bench.self_ms share of traced op time |")
    print("| --- | --- | --- | --- | --- |")
    for w in cols:
        traced_solve = statistics.median(r["metrics"]["traced.solve_s"] for r in traced[w])
        plain = [r["metrics"]["solve_s"] for s in sets for r in s.get((w, 0), [])]
        share = statistics.median(r["bench_share"] for r in traced[w])
        if plain:
            base = statistics.median(plain)
            print(f"| {w} | {traced_solve:.4g} | {base:.4g} | {traced_solve / base - 1:+.1%} | {share:.2%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
