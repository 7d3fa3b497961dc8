#!/usr/bin/env python3
"""featmim benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload overfit-b8 --seed 1 --seconds 15 --trace 0

The program under test is `src/featmim` of the checkout holding this file,
driven in process through `featmim.cli.main`. Inputs are generated from
--seed. With --trace 0 the end-to-end metrics are measured untraced; with
--trace 1 every second unit runs traced and the per-layer metrics come
from the spans. Human-readable lines come first; the last line of stdout
is the result JSON. Scratch files go under .bench_work/ of the checkout.
Workloads and metrics: bench/NOTES.md.
"""

import os

# One BLAS thread: featmim is single-core by design. Must precede numpy.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import compileall
import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu": cpu}


def run_units(workload, seconds, tracer=None):
    """Units until the next would overrun `seconds`, at least
    workload.min_units; stops at a failed unit. With a tracer, every second
    unit runs traced, so traced and untraced units see the same machine.
    Each unit's `setup` is the time from importing featmim until its first
    item of work started."""
    from workloads import featmim_modules, fresh_featmim

    units, spent = [], 0.0
    while True:
        gc.collect()  # every unit starts from a settled heap
        t_import = time.perf_counter()
        cli = fresh_featmim()
        k = len(units)
        if tracer is not None and k % 2:
            tracer.install(featmim_modules())
            rec = tracer.call_unit(lambda: workload.unit(cli, k))
        else:
            rec = workload.unit(cli, k)
        rec["setup"] = rec["first"] - t_import
        units.append(rec)
        spent += rec["wall"]
        n = len(units)
        if rec["errors"]:
            return units
        if (n >= workload.min_units and (tracer is None or n % 2 == 0)
                and spent + spent / n > seconds):
            return units


def measure(workload, args):
    """(units, metrics, report) for one run; metrics maps name -> (value, unit)."""
    from tracing import Tracer, unit_of

    tracer = Tracer() if args.trace else None
    units = run_units(workload, args.seconds, tracer=tracer)
    if any(u["errors"] for u in units):  # the run has failed; no metrics
        return units, {}, {"units": len(units)}
    if tracer is None:
        setup = [u["setup"] for u in units]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rates = [u["images"] / u["busy"] for u in units]
        metrics = {"img_per_s": (statistics.median(rates), "img/s"),
                   "setup_s": (statistics.median(setup), "s"),
                   "peak_rss_mb": (rss_mb, "MB")}
        report = {"units": len(units), "img_per_s min": min(rates),
                  "img_per_s max": max(rates), **workload.report(units)}
        return units, metrics, report
    m = tracer.per_layer()
    m["trace.overhead_ratio"] = (statistics.median(u["wall"] for u in units[1::2])
                                 / statistics.median(u["wall"] for u in units[::2]))
    m["trainer.final_loss_ratio"] = workload.final_loss_ratio(units)
    tracer.save(ROOT / ".bench_work" / f"{args.workload}.spans.npz")
    return units, {k: (v, unit_of(k)) for k, v in m.items()}, {
        "units untraced+traced": len(units), "spans": len(tracer.start)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal input sizes, for bench/smoke.py")
    args = ap.parse_args()

    if not (SRC / "featmim" / "__init__.py").is_file():
        print(f"bench: no featmim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS

    # featmim imports from its ordinary bytecode cache, as a user's would;
    # it is written here, before the first unit, so no unit pays to compile
    compileall.compile_dir(SRC / "featmim", quiet=2)

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        workload = WORKLOADS[args.workload](work, args.seed, args.smoke)
        units, metrics, report, gates = [], {}, {}, []
        try:
            units, metrics, report = measure(workload, args)
            if not any(u["errors"] for u in units):
                gates = workload.gates(units)
        except Exception as e:  # a crash fails the run; its traceback goes to stderr
            traceback.print_exc()
            gates = [("run completed", False, repr(e))]
        for u in units:
            for err in u["errors"]:
                print(f"cli error: {err.strip()}", file=sys.stderr)
        codes = [c for u in units for c in u["codes"]]
        attempted = len(codes) + len(gates)
        failed = sum(c != 0 for c in codes) + sum(not ok for _, ok, _ in gates)
        for name, ok, detail in gates:
            print(f"gate {'PASS' if ok else 'FAIL'}: {name} ({detail})")
        if failed:
            metrics = {}
        report["fail_ratio"] = failed / max(attempted, 1)

        for name, (value, unit) in metrics.items():
            print(f"{args.workload:>15}  {name:<36} {value:>14.6g} {unit}")
        for name, value in report.items():
            print(f"{args.workload:>15}  {name:<36} {value:>14.6g}")
        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
                  "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
        (scratch / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps(
            {"env": env, "seed": args.seed, "report": report, **result}, indent=1))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
