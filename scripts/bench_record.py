#!/usr/bin/env python3
"""Write one BENCH_<n>.json from the benchmark's own runs.

Runs, each from its own checkout and unchanged:
  - each tree's `bench/run.py --trace 0` once on every workload of the
    change tree's BENCHMARK.json, both with one seed;
  - the change tree's `bench/run.py --workload overfit-b8 --trace 1` once;
  - the change tree's `scripts/calls_per_step.py`.

The file holds the seed and seconds given, and:
  - "env": the environment line of the change tree's last untraced run;
  - "end_to_end": per workload, the base's and the change's end-to-end
    metrics, each a value with its unit;
  - "per_layer": the traced overfit-b8 run's live per-layer metrics
    (LIVE_PER_LAYER);
  - "absent": each stale per-layer metric (STALE_PER_LAYER) with the reason
    it is left out. They count tape ops or time functions that no longer
    exist, so they read 0 or too little, and a 0 would read as free;
  - "calls_per_step": per recipe, interpreter calls and tape ops per step.

    python3 scripts/bench_record.py --base ../parent --change . --out BENCH_1.json \\
        --seconds 42 --seed 1
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

TRACED_WORKLOAD = "overfit-b8"

# the per-layer metrics whose spans still time what their names say
LIVE_PER_LAYER = ("model.forward_ms_per_img", "model.patch_embed_ms", "model.encode_ms",
                  "model.decode_ms", "model.project_ms", "model.checkpoint_ms",
                  "trainer.adamw_ms_per_step", "tensor.backward_ms_per_step",
                  "trainer.step_ms_p50", "trainer.step_ms_p90")

_TAPE_OPS = ("bench/tracing.py's TAPE_OPS omits the fused ops linear, attention, smooth_l1 "
             "and pooled_smooth_l1, so it counts about half of the tape")
_REMOVED_OP = "times tensor.{} self time, a function that no longer exists"
STALE_PER_LAYER = {
    "tensor.ops_per_step": _TAPE_OPS,
    "tensor.ops_per_forward": _TAPE_OPS,
    **{f"tensor.op.{op}.self_ms_per_step": _REMOVED_OP.format(op)
       for op in ("matmul", "softmax", "transpose", "reshape", "scatter_rows", "where")},
}


def parse_bench(stdout, what):
    """(env, result) of one bench run's stdout: the `env ` line's JSON and the
    last line's result JSON. A run that is not `correct` ends the script."""
    lines = stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    result = json.loads(lines[-1]) if lines else None
    if env is None or not result or not result.get("correct"):
        sys.exit(f"{what} failed:\n{stdout[-2000:]}")
    return env, result


def parse_calls(stdout):
    """calls_per_step.py's table as {recipe: {"calls": .., "tape_ops": ..}}."""
    rows = [line.split() for line in stdout.strip().splitlines()[1:]]
    return {name: {"calls": float(calls), "tape_ops": float(ops)} for name, calls, ops in rows}


def record(untraced, traced, calls):
    """The BENCH JSON from parsed runs: untraced maps workload -> {"base":
    (env, result), "change": (env, result)}; traced is the (env, result) of
    the traced overfit-b8 run; calls is parse_calls' dict."""
    per_layer = traced[1]["metrics"]
    return {
        "env": list(untraced.values())[-1]["change"][0],
        "end_to_end": {workload: {side: run[1]["metrics"] for side, run in sides.items()}
                       for workload, sides in untraced.items()},
        "per_layer": {TRACED_WORKLOAD: {name: per_layer[name] for name in LIVE_PER_LAYER}},
        "absent": STALE_PER_LAYER,
        "calls_per_step": calls,
    }


def run(tree, argv):
    """stdout of one script of the tree, run from the tree's own checkout."""
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{tree}: {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def bench_argv(workload, seed, seconds, trace):
    return ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, type=Path, help="the parent tree")
    ap.add_argument("--change", required=True, type=Path, help="the changed tree")
    ap.add_argument("--out", required=True, type=Path, help="the BENCH_<n>.json to write")
    ap.add_argument("--seconds", type=float, default=42)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--steps", type=int, default=20, help="calls_per_step.py --steps")
    args = ap.parse_args()

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    untraced = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        untraced[workload] = {
            side: parse_bench(run(tree, bench_argv(workload, args.seed, args.seconds, 0)),
                              f"{tree} {workload}")
            for side, tree in (("base", args.base), ("change", args.change))}
    traced = parse_bench(run(args.change, bench_argv(TRACED_WORKLOAD, args.seed,
                                                     args.seconds, 1)),
                         f"{args.change} {TRACED_WORKLOAD} --trace 1")
    calls = parse_calls(run(args.change, ["scripts/calls_per_step.py",
                                          "--steps", str(args.steps)]))
    doc = {"seed": args.seed, "seconds": args.seconds, **record(untraced, traced, calls)}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench_record: wrote {args.out}")


if __name__ == "__main__":
    main()
