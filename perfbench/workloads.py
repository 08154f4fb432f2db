"""The three benchmark workloads: CLI recipes, their inputs and their checks.

A recipe is the list of `attrakit` invocations that make up one pass. Every
invocation gets the workload seed as `--seed`, so the same seed gives the
same inputs and, the CLI being deterministic, the same output hashes. No
recipe uses `--workers` or `--rank-tol`: both are slated for removal, and
a workload must not start failing when they go.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Sizes per workload. "full" is what the benchmark measures; "tiny" only
# proves that every metric is produced (see smoke.py). The trajectory
# p, z, m shape the n=40 system it integrates with RK4, which `attrakit
# construct` makes while the benchmark sets up, outside the timing.
SIZES = {
    "full": {
        "attractor": {"p": 24, "z": 16, "m": 3, "samples": 200, "starts": 256},
        "trajectory": {"steps": 100000, "t_end": 10.0, "dt": 0.001, "p": 24, "z": 16, "m": 3},
        "probe": {"epochs": 20, "probes": 96, "samples": 500, "per_class": 1000},
    },
    "tiny": {
        "attractor": {"p": 4, "z": 3, "m": 2, "samples": 5, "starts": 16},
        "trajectory": {"steps": 400, "t_end": 0.2, "dt": 0.001, "p": 4, "z": 3, "m": 2},
        "probe": {"epochs": 2, "probes": 4, "samples": 10, "per_class": 200},
    },
}

NAMES = ("attractor", "trajectory", "probe")

# Newton's work on the attractor workload differs by about 9% between
# constructed instances (iterations per start range 27-34 over seeds 1-10),
# more than the bound allows for seed-to-seed spread. So the passes of a
# run cycle through this many instances, all derived from the run's seed.
INSTANCES = {"attractor": 3}

ON_SET_TOL = 1e-6
RESIDUAL_TOL = 1e-10
MIN_TRAIN_ACCURACY = 0.9

_NON_FINITE = re.compile(rb"(?<![A-Za-z_])(nan|NaN|inf|Infinity)(?![A-Za-z_])")
_ACCURACY = re.compile(r"train accuracy ([0-9.]+)")


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its label (also its output directory) and arguments."""

    label: str
    args: list[str]

    def argv(self, pass_dir: Path) -> list[str]:
        return self.args + ["--out-dir", str(pass_dir / self.label)]


def construct_args(shape: dict, seed: int) -> list[str]:
    return ["construct", "--p", str(shape["p"]), "--z", str(shape["z"]),
            "--m", str(shape["m"]), "--seed", str(seed)]


def recipe(workload: str, size: str, seed: int, pass_dir: Path,
           input_dir: Path) -> list[Invocation]:
    """The invocations of one pass; outputs go under pass_dir."""
    s = SIZES[size][workload]
    seed_arg = ["--seed", str(seed)]
    if workload == "attractor":
        return [
            Invocation("construct", construct_args(s, seed)
                       + ["--samples", str(s["samples"])]),
            Invocation("analyze", ["analyze", str(pass_dir / "construct" / "system.json"),
                                   "--box", "-5", "5", "--starts", str(s["starts"])]
                       + seed_arg),
        ]
    if workload == "trajectory":
        steps = s["steps"]
        return [
            Invocation("map", ["simulate", "--gen", "stratified", "--steps", str(steps),
                               "--snapshots", f"50,100,200,{steps}"] + seed_arg),
            Invocation("rk4", ["simulate", str(input_dir / "system.json"),
                               "--t-end", str(s["t_end"]), "--dt", str(s["dt"])]
                       + seed_arg),
        ]
    if workload == "probe":
        return [
            Invocation("probe", ["probe", "--synthetic", "--classes", "3",
                                 "--epochs", str(s["epochs"]),
                                 "--per-class", str(s["per_class"]),
                                 "--probes-per-category", str(s["probes"]),
                                 "--samples-per-group", str(s["samples"])] + seed_arg),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pass_seed(workload: str, seed: int, k: int) -> int:
    """The CLI --seed of pass k of a run: the run's instances in turn."""
    n = INSTANCES.get(workload, 1)
    return n * seed + k % n


def input_invocation(workload: str, size: str, seed: int) -> Invocation | None:
    """The CLI call that makes a workload's input files, if it has any."""
    if workload == "trajectory":
        return Invocation("input", construct_args(SIZES[size]["trajectory"], seed))
    return None


def output_hashes(manifest: dict) -> dict[str, str]:
    """Output hashes keyed by file name, so passes in other directories compare."""
    return {Path(o["path"]).name: o["sha256"] for o in manifest["outputs"]}


def non_finite_outputs(manifest: dict) -> list[str]:
    """Names of output files that contain a nan or inf token."""
    return [Path(o["path"]).name for o in manifest["outputs"]
            if _NON_FINITE.search(Path(o["path"]).read_bytes())]


def _distance_to_set(x: np.ndarray, gt: dict) -> float:
    """Distance from x to the constructed equilibrium set (cone-clipped foot)."""
    p = gt["p"]
    basis = np.asarray(gt["basis"])
    c = np.clip(basis.T @ x[:p], 0.0, None)
    foot_p = basis @ c
    foot = np.concatenate([foot_p, np.asarray(gt["W_ZP"]) @ foot_p + np.asarray(gt["b_Z"])])
    return float(np.linalg.norm(x - foot))


def check_pass(workload: str, size: str, pass_dir: Path,
               stdout: dict[str, str]) -> tuple[list[str], dict[str, float]]:
    """Workload checks on one pass's outputs.

    Returns the list of failed checks and the workload's quality figures:
    dim_match_frac and on_set_yield for attractor, cv_gap for probe.
    """
    problems: list[str] = []
    quality: dict[str, float] = {}
    if workload == "attractor":
        verification = json.loads((pass_dir / "construct" / "verification.json").read_text())
        if not verification["passed"]:
            problems.append("construct verification failed")
        gt = json.loads((pass_dir / "construct" / "system.json").read_text())["ground_truth"]
        reports = json.loads((pass_dir / "analyze" / "equilibria.json").read_text())
        if any(r["residual"] > RESIDUAL_TOL for r in reports):
            problems.append(f"an equilibrium has residual above {RESIDUAL_TOL:g}")
        on_set = [r for r in reports
                  if _distance_to_set(np.asarray(r["point"]), gt) <= ON_SET_TOL]
        if not on_set:
            problems.append("no equilibrium lies on the ground-truth set")
        quality["on_set_yield"] = len(on_set) / SIZES[size]["attractor"]["starts"]
        quality["dim_match_frac"] = (
            sum(r["attractor_dim"] == gt["m"] for r in on_set) / len(on_set)
            if on_set else 0.0)
    elif workload == "trajectory":
        report = json.loads((pass_dir / "map" / "slowfast.json").read_text())
        if report["collapse_step"] >= SIZES[size]["trajectory"]["steps"]:
            problems.append("stratified map reports no collapse step")
    elif workload == "probe":
        found = _ACCURACY.search(stdout["probe"])
        if found is None or float(found.group(1)) < MIN_TRAIN_ACCURACY:
            problems.append(f"train accuracy below {MIN_TRAIN_ACCURACY}")
        with open(pass_dir / "probe" / "stratification.csv", newline="") as fh:
            mean_cv = {row["group"]: float(row["mean_cv"]) for row in csv.DictReader(fh)}
        quality["cv_gap"] = mean_cv["train_class"] - mean_cv["random_noise"]
    return problems, quality
