"""The experiment scripts run end to end at small sizes."""

from pathlib import Path

import pytest
from conftest import run_python

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, args, cwd):
    return run_python(str(ROOT / "scripts" / name), *args, cwd=cwd, timeout=120)


@pytest.mark.parametrize("name, args, outputs", [
    ("groundtruth_roundtrip.py", ["--starts", "8"], []),
    ("slowfast_demo.py", ["--steps", "300", "--out-dir", "out"],
     ["out/stratified_trajectory.csv", "out/uniform_trajectory.csv"]),
    ("stratification_blobs.py", ["--seeds", "1", "--per-class", "100", "--epochs", "1",
                                 "--probes", "4", "--out-dir", "out"],
     ["out/cvtrace_seed0.csv"]),
])
def test_script_runs_and_writes_into_its_directory(tmp_path, name, args, outputs):
    result = run_script(name, args, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout
    for rel in outputs:
        assert (tmp_path / rel).stat().st_size > 0
    # nothing lands outside the run directory
    assert sorted(p.name for p in tmp_path.iterdir()) == (["out"] if outputs else [])


def test_stratification_blobs_one_seed_prints_no_standard_error(tmp_path):
    # one gap has no sample spread: no numpy warning, no nan in the summary
    result = run_script("stratification_blobs.py",
                        ["--seeds", "1", "--per-class", "100", "--epochs", "1",
                         "--probes", "4", "--out-dir", "out"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "nan" not in result.stdout
    assert "mean gap" in result.stdout


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_stratification_blobs_rejects_seed_counts_below_one(tmp_path, seeds):
    result = run_script("stratification_blobs.py", ["--seeds", seeds, "--out-dir", "out"],
                        tmp_path)
    assert result.returncode == 2
    assert "--seeds" in result.stderr
    assert list(tmp_path.iterdir()) == []
