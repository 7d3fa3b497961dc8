#!/usr/bin/env python3
"""ABBA pairs of two trees' own benchmark runs, and their summary.

Runs `bench/run.py` of each tree, unchanged and from its own checkout,
`--pairs` times on one workload with seeds counting up from --first-seed,
after one unrecorded warm-up run of each tree: a freshly unpacked tree's
first `teacher-corpus` run reads `peak_rss_mb` about 3% low. Pair i runs
the base first when i is even and the change first when it is odd; both
runs of a pair use its seed. Every run must report
`correct`. For each end-to-end metric of the change tree's BENCHMARK.json
it prints both sides' medians and the base's quartile spread, the median and
quartiles of the per-pair ratio change / base, the pairs the change wins
(ties count for neither) and the exact two-sided sign-test p of that count.

    python3 scripts/ab.py --base ../parent --change . --workload overfit-b8 \\
        --pairs 10 --seconds 20 --first-seed 71
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def sign_test_p(wins, n):
    """Exact two-sided sign-test p of `wins` of n untied pairs."""
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, n - wins) + 1))
    return min(1.0, 2 * tail / 2**n)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs, end_to_end):
    """pairs: [(base result, change result)], each the result JSON a bench
    run prints last; end_to_end: BENCHMARK.json's list of {name, better}.
    Returns one dict per metric: the medians, the base's quartile spread,
    the ratio's median and quartiles, the wins, the untied pairs and p."""
    rows = []
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        ratios = [c / b for b, c in zip(base, change)]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        untied = sum(c != b for b, c in zip(base, change))
        q1, q3 = _quartiles(base)
        r1, r3 = _quartiles(ratios)
        rows.append({"metric": name, "better": metric["better"],
                     "base_median": statistics.median(base),
                     "change_median": statistics.median(change),
                     "base_iqr": q3 - q1, "ratio_median": statistics.median(ratios),
                     "ratio_q1": r1, "ratio_q3": r3, "wins": wins, "untied": untied,
                     "p": sign_test_p(wins, untied)})
    return rows


def format_rows(rows, n_pairs):
    lines = [f"{'metric':<12} {'base':>10} {'change':>10} {'base IQR':>9} "
             f"{'ratio':>7} {'ratio IQR':>15} {'wins':>7} {'p':>7}"]
    for r in rows:
        lines.append(f"{r['metric']:<12} {r['base_median']:>10.4g} {r['change_median']:>10.4g} "
                     f"{r['base_iqr']:>9.3g} {r['ratio_median']:>7.4f} "
                     f"[{r['ratio_q1']:.4f}, {r['ratio_q3']:.4f}] "
                     f"{r['wins']:>3}/{n_pairs:<3} {r['p']:>7.4f}")
    return "\n".join(lines)


def bench_run(tree, workload, seed, seconds):
    """The result JSON of one run of the tree's own bench/run.py."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if not result or not result["correct"]:
        sys.exit(f"{tree} {workload} seed {seed} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, type=Path, help="the parent tree")
    ap.add_argument("--change", required=True, type=Path, help="the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, required=True)
    args = ap.parse_args()

    end_to_end = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    for tree in (args.base, args.change):
        bench_run(tree, args.workload, args.first_seed, args.seconds)
    pairs = []
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        result = {}
        for side in order:
            result[side] = bench_run(getattr(args, side), args.workload, seed, args.seconds)
            values = " ".join(f"{m['name']}={result[side]['metrics'][m['name']]['value']:.6g}"
                              for m in end_to_end)
            print(f"pair {i} seed {seed} {side:<6} {values}", flush=True)
        pairs.append((result["base"], result["change"]))
    print(format_rows(summarize(pairs, end_to_end), len(pairs)))


if __name__ == "__main__":
    main()
