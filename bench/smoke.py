#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at minimal size,
untraced and traced, plus a checkout without sources.

    python3 bench/smoke.py

Checks that each run exits 0 with a passing result line, that the metric
names are exactly those BENCHMARK.json declares for the mode, match
[A-Za-z0-9_.-]+ and carry the declared unit, and that a directory holding
only the benchmark fails without printing a result. Exits 1 on any failure.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable if arg == "python3" else arg for arg in spec["command"]]
    cmd += ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(proc, declared):
    """Problems with one run's output; declared maps metric name to unit."""
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"not correct: {proc.stdout.strip()[-800:]}")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"missing {sorted(set(declared) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(declared))}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if m.get("unit") != declared.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}, declared {declared.get(name)!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m.get('value')!r}")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems = check_result(run(ROOT, w["name"], trace), declared[trace])
            print(f"{'FAIL' if problems else 'ok  '} {w['name']} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="smoke-bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        printed = any(line.startswith("{") for line in proc.stdout.splitlines())
        ok = proc.returncode != 0 and not printed
        print(f"{'ok  ' if ok else 'FAIL'} no sources: exit {proc.returncode}, "
              f"result printed: {printed}")
        failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
