#!/usr/bin/env python3
"""Smoke check of the benchmark; sets no timing bound.

    python3 perfbench/smoke.py

Runs every workload at toy size, untraced and traced, and checks that the
last line of output names every metric of BENCHMARK.json with its unit,
that the metric tables in the code agree with BENCHMARK.json, and that the
benchmark refuses to run where there is no program to measure. Exits 1 on
the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def fail(message: str) -> None:
    print(f"smoke: {message}", file=sys.stderr)
    sys.exit(1)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        fail("BENCHMARK.json workloads differ from workloads.NAMES")
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if declared[0] != run.END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != \
            [row[:3] for row in tracing.LAYER_METRICS]:
        fail("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")

    for workload in workloads.NAMES:
        for trace in (0, 1):
            done = run_benchmark(ROOT, workload, trace)
            if done.returncode != 0:
                fail(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} --trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"{workload} --trace {trace} failed:\n{done.stdout}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                missing = sorted(set(declared[trace]) - set(got))
                fail(f"{workload} --trace {trace}: metrics differ, missing {missing}")
            print(f"smoke: {workload} --trace {trace}: {len(got)} metrics")

    # with only BENCHMARK.json and the benchmark present it must refuse to run
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = run_benchmark(bare, workloads.NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if done.returncode == 0 or done.stdout.strip():
        fail("the benchmark ran without a program to measure")
    print("smoke: refuses to run without the program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
