#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the shortest run length.

    python3 perfbench/selftest.py

For every workload, in both modes, the run must pass its checks and print
exactly the metrics BENCHMARK.json names (awgn_sweep_2w, which is not in
BENCHMARK.json, must print the same names).  A golden with one count
changed must make the run fail, and a directory holding only the benchmark
must make it exit nonzero without a result line.  Takes a few minutes.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from run import DEFAULT_SEED, GOLDEN_PATH, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, RUN if cwd == ROOT else os.path.join("perfbench", "run.py"),
         *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = {
        0: [m["name"] for m in spec["end_to_end"]],
        1: [m["name"] for m in spec["per_layer"]],
    }
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace in (0, 1):
            what = f"{workload} --trace {trace}"
            proc, result = bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                                 "--seconds", "1", "--trace", str(trace))
            if result is None:
                expect(False, f"{what}: no result line\n{proc.stderr[-2000:]}")
                continue
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   f"{what}: passes its checks ({result['attempted']} checked)")
            expect(list(result["metrics"]) == names[trace], f"{what}: prints every named metric")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in result["metrics"].values()), f"{what}: values are finite numbers")

    os.makedirs(OUT, exist_ok=True)
    perturbed = os.path.join(OUT, "golden-perturbed.json")
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    golden[str(DEFAULT_SEED)]["tuned_point"]["sbidma_tuned"]["failures"] += 1
    with open(perturbed, "w", encoding="utf-8") as fh:
        json.dump(golden, fh)
    proc, result = bench("--workload", "tuned_point", "--seed", str(DEFAULT_SEED),
                         "--seconds", "1", "--golden", perturbed)
    expect(proc.returncode != 0 and result is not None and not result["correct"]
           and result["failed"] >= 1, "a perturbed golden count makes the run fail")

    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = bench("--workload", "rayleigh1024_sweep", "--seconds", "1", cwd=bare)
    expect(proc.returncode != 0 and result is None,
           "without the simulator sources the run exits nonzero and prints no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
