#!/usr/bin/env python3
"""Benchmark of the attrakit command line, end to end and layer by layer.

    python3 perfbench/run.py --workload attractor --seed 1 --seconds 36 --trace 0

With --trace 0 the benchmark runs passes of the workload's CLI recipe
until --seconds are used up. Each invocation is its own `attrakit`
process, started one at a time with the default BLAS threads, and timed
from spawn to exit; the command's own time is the `duration_s` of its
manifest. The last line of standard output is a JSON object with the
medians of the end-to-end metrics over the passes.

With --trace 1 the benchmark instead replays the recipes in this process
through `attrakit.cli.main`, with spans around the library functions the
CLI calls (see tracing.py), and prints the per-layer metrics.

The program is taken from src/ next to this directory; no install is
needed. Run-time files go to .perfbench_work/, which is removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cmd_s": "s", "peak_rss_mb": "MiB"}
MIN_PASSES = 3
INVOCATION_TIMEOUT_S = 120.0

# what the `attrakit` console script runs
CLI_MAIN = "import sys; from attrakit.cli import main; sys.exit(main())"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # an installed package has its bytecode cached; let the warm-up write it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


@dataclass
class Outcome:
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stdout: str
    stderr: str


def spawn(cmd: list[str], log_stem: Path, env: dict[str, str]) -> Outcome:
    """Run one process to its end; wall time from spawn to exit, rusage from wait4."""
    with open(log_stem.with_suffix(".stdout"), "w+") as out, \
            open(log_stem.with_suffix(".stderr"), "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        reaped = threading.Event()

        def kill_if_running():
            if not reaped.is_set():
                os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(INVOCATION_TIMEOUT_S, kill_if_running)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            timer.cancel()
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
        reaped.set()
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, proc.returncode, usage.ru_maxrss, out.read(), err.read())


def cli_command(argv: list[str]) -> list[str]:
    return [sys.executable, "-c", CLI_MAIN, *argv]


@dataclass
class Pass:
    wall_s: float = 0.0
    cmd_s: float = 0.0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    hashes: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return self.wall_s - self.cmd_s


def run_pass(workload, size, seed, pass_dir: Path, input_dir: Path, env) -> Pass:
    result = Pass()
    stdout = {}
    pass_dir.mkdir(parents=True)
    for inv in workloads.recipe(workload, size, seed, pass_dir, input_dir):
        outcome = spawn(cli_command(inv.argv(pass_dir)), pass_dir / inv.label, env)
        result.wall_s += outcome.wall_s
        result.peak_rss_mb = max(result.peak_rss_mb, outcome.maxrss_kb / 1024.0)
        stdout[inv.label] = outcome.stdout
        if outcome.exit_code != 0:
            result.problems.append(f"{inv.label} exited {outcome.exit_code}: "
                                   f"{outcome.stderr.strip()[-300:]}")
            return result
        try:
            manifest = json.loads((pass_dir / inv.label / "manifest.json").read_text())
            result.cmd_s += manifest["duration_s"]
            bad = workloads.non_finite_outputs(manifest)
        except (OSError, KeyError, ValueError) as exc:
            result.problems.append(f"{inv.label}: unreadable output ({exc})")
            return result
        if bad:
            result.problems.append(f"{inv.label}: non-finite values in {bad}")
        result.hashes.update({f"{inv.label}/{name}": h
                              for name, h in workloads.output_hashes(manifest).items()})
    try:
        problems, result.quality = workloads.check_pass(workload, size, pass_dir, stdout)
    except (OSError, KeyError, ValueError) as exc:
        problems = [f"missing or malformed output ({exc})"]
    result.problems += problems
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it, if any above p50."""
    pct = int(100 * (1 - 10 / len(values)))
    if pct <= 50:
        return None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def run_end_to_end(workload, size, seed, seconds, work: Path):
    env = child_env()
    warm = spawn([sys.executable, "-c", "import attrakit.cli"], work / "warmup", env)
    if warm.exit_code != 0:
        raise SystemExit(f"perfbench: cannot import attrakit.cli:\n{warm.stderr}")
    input_dir = work / "input"
    make_input = workloads.input_invocation(workload, size, seed)
    if make_input is not None:
        made = spawn(cli_command(make_input.args + ["--out-dir", str(input_dir)]),
                     work / "input", env)
        if made.exit_code != 0:
            raise SystemExit(f"perfbench: making the {workload} input failed:\n{made.stderr}")

    passes: list[Pass] = []
    first: dict[int, Pass] = {}  # the first good pass of each instance
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_dir = work / f"pass{len(passes)}"
        flags_seed = workloads.pass_seed(workload, seed, len(passes))
        p = run_pass(workload, size, flags_seed, pass_dir, input_dir, env)
        if not p.problems and first.setdefault(flags_seed, p).hashes != p.hashes:
            p.problems.append("output hashes differ from an earlier pass with the same flags")
        passes.append(p)
        shutil.rmtree(pass_dir)

    good = [p for p in passes if not p.problems] or passes
    samples = {name: [getattr(p, name) for p in good] for name in END_TO_END}
    metrics = {name: {"value": statistics.median(v), "unit": END_TO_END[name]}
               for name, v in samples.items()}
    failed = sum(1 for p in passes if p.problems)

    lines = [f"workload {workload}, seed {seed}: {len(passes)} passes, {failed} failed"]
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        line = (f"  {name:<16} median {med:.6g} {END_TO_END[name]}  "
                f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
        t = tail(values)
        if t is not None:
            line += f"  p{t[0]} {t[1]:.6g}"
        lines.append(line)
    lines.append(f"  {'fail_frac':<16} {failed / len(passes):.6g} fraction "
                 f"({failed}/{len(passes)} passes)")
    for name in sorted({q for p in first.values() for q in p.quality}):
        value = statistics.mean(p.quality[name] for p in first.values())
        lines.append(f"  {name:<16} {value:.6g} fraction (mean over {len(first)} instances)")
    for i, p in enumerate(passes):
        for problem in p.problems:
            lines.append(f"  pass {i} failed: {problem}")
    return metrics, len(passes), failed, lines


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the numpy loaded here, read through its C API."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over src/ file names and contents; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at toy size (smoke check)")
    args = parser.parse_args(argv)

    if not (SRC / "attrakit" / "cli.py").is_file():
        print(f"perfbench: no attrakit source at {SRC / 'attrakit'}", file=sys.stderr)
        return 2

    # a termination request unwinds like an error: children are killed, files removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, attempted, failed, lines = tracing.run_traced(
                args.workload, args.size, args.seed, args.seconds, work, SRC, child_env())
        else:
            metrics, attempted, failed, lines = run_end_to_end(
                args.workload, args.size, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("\n".join(lines))
    print("environment " + json.dumps(environment(args.seed)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
