import contextlib
import copy
import csv
import errno
import hashlib
import io
import json
import os
import shlex
import struct
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit import _forked, simulate
from attrakit.cli import _sha256, build_parser, main, subseed
from attrakit.dynsys import Activation, SystemForm, make_system, save_system
from attrakit.probe import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC
from conftest import run_python


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def out_hashes(out_dir: Path) -> dict:
    return {p.name: sha256(p) for p in sorted(out_dir.iterdir())
            if p.name != "manifest.json"}


def write_tanh_system(path):
    sys1 = make_system(W=[[1.0]], A=[[0.5]], b=[0.0],
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    save_system(sys1, path)


def write_idx_fixture(tmp_path, n_classes=4, per_class=30, side=6, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(n_classes, dtype=np.uint8), per_class)
    images = np.empty((labels.shape[0], side, side), dtype=np.uint8)
    for i, label in enumerate(labels):
        base = np.full((side, side), 40 * (int(label) + 1), dtype=float)
        images[i] = np.clip(base + rng.normal(0, 12, (side, side)), 0, 255).astype(np.uint8)
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, labels.shape[0], side, side)
                         + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, labels.shape[0])
                         + labels.tobytes())
    return img_path, lbl_path


def test_subseed_is_deterministic_and_stream_separated():
    assert subseed(7, 0) == subseed(7, 0)
    assert subseed(7, 0) != subseed(7, 1)
    assert subseed(7, 0) != subseed(8, 0)


@pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, 3 * (1 << 16) + 7])
def test_manifest_hash_reads_blocks_of_any_file_size(tmp_path, size):
    path = tmp_path / "blob"
    data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path.write_bytes(data)
    assert _sha256(path) == hashlib.sha256(data).hexdigest()


def test_construct_writes_files_and_manifest(tmp_path):
    out = tmp_path / "run"
    code = main(["construct", "--p", "6", "--z", "4", "--m", "2",
                 "--seed", "7", "--out-dir", str(out)])
    assert code == 0
    verification = json.loads((out / "verification.json").read_text())
    assert verification["expected_rank"] == 8
    assert verification["passed"] is True
    system = json.loads((out / "system.json").read_text())
    assert system["n"] == 10
    assert set(system["ground_truth"]) == {"p", "z", "m", "basis", "W_ZP", "b_Z", "c_max"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    for entry in manifest["outputs"]:
        assert sha256(entry["path"]) == entry["sha256"]


def test_construct_rejects_degenerate_m(tmp_path):
    code = main(["construct", "--p", "4", "--z", "2", "--m", "0",
                 "--out-dir", str(tmp_path / "x")])
    assert code == 2


def test_construct_rerun_reproduces_hashes(tmp_path):
    args = ["construct", "--p", "4", "--z", "2", "--m", "1", "--seed", "3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert out_hashes(a) == out_hashes(b)


def test_analyze_tanh_system(tmp_path, capsys):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    out = tmp_path / "run"
    code = main(["analyze", str(system_path), "--box", "-3", "3",
                 "--starts", "16", "--out-dir", str(out)])
    assert code == 0
    reports = json.loads((out / "equilibria.json").read_text())
    assert len(reports) == 3
    assert all(r["attractor_dim"] == 0 for r in reports)
    assert "3 equilibria" in capsys.readouterr().out


def test_analyze_constructed_system_reports_dimension(tmp_path):
    # small coefficient box keeps the attractor inside the search region
    out_c = tmp_path / "c"
    assert main(["construct", "--p", "4", "--z", "2", "--m", "1", "--c-max", "2",
                 "--seed", "5", "--out-dir", str(out_c)]) == 0
    out_a = tmp_path / "a"
    code = main(["analyze", str(out_c / "system.json"), "--box", "-5", "5",
                 "--starts", "100", "--out-dir", str(out_a)])
    assert code == 0
    reports = json.loads((out_a / "equilibria.json").read_text())
    assert any(r["attractor_dim"] == 1 for r in reports)


def test_analyze_rejects_degenerate_box(tmp_path):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    code = main(["analyze", str(system_path), "--box", "1", "1",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2


@pytest.mark.parametrize("box", [["nan", "5"], ["-5", "inf"]])
def test_analyze_rejects_non_finite_box(tmp_path, capsys, box):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    out = tmp_path / "run"
    code = main(["analyze", str(system_path), "--box", *box, "--out-dir", str(out)])
    assert code == 2
    assert "box bounds must be finite" in capsys.readouterr().err
    assert not (out / "equilibria.json").exists()


@pytest.mark.parametrize("argv", [["analyze"], ["svd-report"]])
def test_non_finite_rank_tol_is_an_input_error(tmp_path, capsys, argv):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main([argv[0], str(system_path), "--rank-tol", "nan", "--out-dir", str(out)])
    assert exc.value.code == 2
    assert "argument --rank-tol: must be a finite number > 0, got nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "SYSTEM"], "--rank-tol"),
    (["svd-report", "SYSTEM"], "--rank-tol"),
    (["simulate", "--gen", "stratified", "--steps", "50"], "--eps-conv"),
    (["simulate", "SYSTEM", "--dt", "0.1"], "--t-end"),
    (["simulate", "SYSTEM", "--t-end", "1"], "--dt"),
    (["probe", "--synthetic", "--epochs", "1", "--per-class", "20"], "--lr"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
def test_float_flags_need_a_finite_positive_value(tmp_path, capsys, argv, flag, value):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    argv = [str(system_path) if a == "SYSTEM" else a for a in argv]
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number > 0, got {value}" in capsys.readouterr().err
    assert not out.exists()


def valid_system_doc():
    return {"n": 2, "form": "pre_activation", "activation": "tanh",
            "W": [[1.0, 0.5], [0.0, 1.0]], "A": [[0.5, 0.0], [0.0, 0.5]], "b": [0.0, 0.1]}


NOT_A_FINITE_NUMBER = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400, None, True, False]),
    st.text(max_size=3),
    st.lists(st.floats(allow_nan=False), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def malformed_system_docs(draw):
    doc = valid_system_doc()
    edit = draw(st.sampled_from(["drop", "reshape", "entry"]))
    if edit == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
        return doc
    name = draw(st.sampled_from(["W", "A", "b"]))
    arr = np.array(doc[name])
    if edit == "reshape":
        shape = draw(st.lists(st.integers(0, 3), max_size=3).map(tuple)
                     .filter(lambda s: s != arr.shape))
        doc[name] = np.resize(arr, shape).tolist()
    else:
        nested = copy.deepcopy(doc[name])
        index = draw(st.sampled_from(list(np.ndindex(arr.shape))))
        parent = nested
        for i in index[:-1]:
            parent = parent[i]
        parent[index[-1]] = draw(NOT_A_FINITE_NUMBER)
        doc[name] = nested
    return doc


@given(doc=malformed_system_docs())
@settings(max_examples=80, deadline=None)
def test_malformed_system_file_is_an_input_error(tmp_path_factory, doc):
    run = tmp_path_factory.mktemp("malformed")
    system_path = run / "system.json"
    system_path.write_text(json.dumps(doc))
    for argv in (["analyze", str(system_path), "--starts", "1"],
                 ["simulate", str(system_path), "--steps", "2", "--t-end", "0.1", "--dt", "0.05"]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + ["--out-dir", str(run / "out")])
        assert code == 2
        assert err.getvalue().startswith("error: ")


def test_analyze_missing_file(tmp_path):
    code = main(["analyze", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2


def test_simulate_generated_with_snapshots(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "2000",
                 "--snapshots", "50,100,200", "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    assert (out / "system.json").exists()
    with open(out / "snapshots.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "t", "x_1", "x_2", "x_3"]
    assert [r[0] for r in rows[1:]] == ["50", "100", "200"]
    # every CSV artifact ends its rows in CRLF, as csv.writer does
    assert (out / "snapshots.csv").read_bytes().count(b"\r\n") == 4
    # each snapshot row is its trajectory row, byte for byte, less the speed cell
    traj_lines = (out / "trajectory.csv").read_bytes().split(b"\r\n")
    snap_lines = (out / "snapshots.csv").read_bytes().split(b"\r\n")
    assert snap_lines[0] == traj_lines[0].rsplit(b",", 1)[0]
    for line, step in zip(snap_lines[1:], (50, 100, 200)):
        assert line == traj_lines[step + 1].rsplit(b",", 1)[0]
    assert snap_lines[-1] == b""
    report = json.loads((out / "slowfast.json").read_text())
    assert set(report) == {"collapse_step", "collapse_speed", "terminal_drift",
                           "endpoint", "converged"}


def test_simulate_stratified_full_run_four_snapshots(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "20000",
                 "--snapshots", "50,100,200,20000", "--seed", "1",
                 "--out-dir", str(out)])
    assert code == 0
    with open(out / "snapshots.csv") as fh:
        rows = list(csv.reader(fh))
    assert [r[0] for r in rows[1:]] == ["50", "100", "200", "20000"]
    report = json.loads((out / "slowfast.json").read_text())
    assert report["converged"] is True


def test_simulate_fixed_point_start_zero_drift(tmp_path):
    system_path = tmp_path / "fp.json"
    sys1 = make_system(W=2.0 * np.eye(2), A=np.eye(2), b=np.zeros(2),
                       activation=Activation.identity, form=SystemForm.discrete_map)
    save_system(sys1, system_path)
    out = tmp_path / "run"
    code = main(["simulate", str(system_path), "--steps", "50",
                 "--x0", "0.3,-0.7", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "slowfast.json").read_text())
    assert report["terminal_drift"] == 0.0
    assert report["converged"] is True


def test_simulate_rk4_exponential_decay(tmp_path):
    system_path = tmp_path / "decay.json"
    sys1 = make_system(W=[[0.0]], A=[[1.0]], b=[0.0],
                       activation=Activation.identity, form=SystemForm.pre_activation)
    save_system(sys1, system_path)
    out = tmp_path / "run"
    code = main(["simulate", str(system_path), "--t-end", "1", "--dt", "0.01",
                 "--x0", "1", "--out-dir", str(out)])
    assert code == 0
    with open(out / "trajectory.csv") as fh:
        last = list(csv.reader(fh))[-1]
    assert abs(float(last[2]) - 0.36787944117144233) <= 1e-8


def test_simulate_divergence_exit_code(tmp_path):
    system_path = tmp_path / "boom.json"
    sys1 = make_system(W=[[0.0]], A=[[-2.0]], b=[0.0],
                       activation=Activation.identity, form=SystemForm.discrete_map)
    save_system(sys1, system_path)
    code = main(["simulate", str(system_path), "--steps", "200",
                 "--x0", "1", "--out-dir", str(tmp_path / "run")])
    assert code == 3


@pytest.mark.parametrize("x0", ["nan,0,0", "0,inf,0"])
def test_simulate_rejects_non_finite_x0(tmp_path, x0):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "50",
                 "--x0", x0, "--out-dir", str(out)])
    assert code == 2
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("snapshots", ["1,99", "1,x", "2,-1"])
def test_simulate_rejects_bad_snapshots_before_writing_them(tmp_path, snapshots):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "5",
                 "--snapshots", snapshots, "--out-dir", str(out)])
    assert code == 2
    # rejected before the run writes anything
    assert not (out / "snapshots.csv").exists()
    assert not (out / "trajectory.csv").exists()


def test_simulate_checks_snapshots_before_stepping(tmp_path, capsys, monkeypatch):
    import attrakit.cli as cli

    calls = []
    iterate_map = cli.iterate_map

    def counting_iterate_map(*args, **kwargs):
        calls.append(args)
        return iterate_map(*args, **kwargs)

    monkeypatch.setattr(cli, "iterate_map", counting_iterate_map)
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "100000",
                 "--snapshots", "1,200000", "--out-dir", str(out)])
    assert code == 2
    assert calls == []
    assert "snapshot step 200000 outside trajectory (last step 100000)" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_simulate_rk4_snapshots_end_at_the_last_step(tmp_path, capsys):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    argv = ["simulate", str(system_path), "--t-end", "1", "--dt", "0.1"]
    assert main(argv + ["--snapshots", "11", "--out-dir", str(tmp_path / "past")]) == 2
    assert "last step 10" in capsys.readouterr().err
    assert list((tmp_path / "past").iterdir()) == []
    assert main(argv + ["--snapshots", "10", "--out-dir", str(tmp_path / "last")]) == 0
    rows = (tmp_path / "last" / "snapshots.csv").read_text().splitlines()
    assert rows[1].startswith("10,1,")


@pytest.mark.parametrize("argv, flag", [
    (["--gen", "stratified", "--steps", "5", "--t-end", "1"], "--t-end"),
    (["--gen", "uniform", "--steps", "5", "--dt", "0.1"], "--dt"),
    (["--gen", "stratified", "--t-end", "1", "--dt", "0.1"], "--t-end"),
    (["{system}", "--t-end", "1", "--dt", "0.1", "--steps", "5"], "--steps"),
    (["{system}", "--t-end", "1", "--dt", "0.1", "--gen-ratio", "5", "--gen-n", "7"],
     "--gen-ratio"),
    (["{system}", "--t-end", "1", "--dt", "0.1", "--gen-b-scale", "0.1"], "--gen-b-scale"),
    (["--gen", "uniform", "--steps", "5", "--gen-ratio", "5"], "--gen-ratio"),
])
def test_simulate_rejects_the_other_forms_stepping_flags(tmp_path, capsys, argv, flag):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    out = tmp_path / "run"
    argv = [a.format(system=system_path) for a in argv]
    code = main(["simulate", *argv, "--out-dir", str(out)])
    assert code == 2
    assert f"error: {flag} applies only to" in capsys.readouterr().err
    # system.json too: nothing is written before the flags are checked
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("x0, message", [
    ("1,2", "--x0 has 2 values, the system dimension is 3"),
    ("1,a,2", "--x0 must be comma-separated numbers"),
])
def test_simulate_rejects_malformed_x0_naming_it(tmp_path, capsys, x0, message):
    code = main(["simulate", "--gen", "stratified", "--steps", "5",
                 "--x0", x0, "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["analyze"], ["simulate", "--t-end", "1", "--dt", "0.1"]])
def test_non_finite_system_file_is_an_input_error(tmp_path, capsys, argv):
    system_path = tmp_path / "nan.json"
    system_path.write_text(json.dumps({"n": 1, "form": "pre_activation", "activation": "tanh",
                                       "W": [[float("nan")]], "A": [[0.5]], "b": [0.0]}))
    code = main([argv[0], str(system_path)] + argv[1:] + ["--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert "W has non-finite entries" in capsys.readouterr().err


@pytest.mark.parametrize("theta", ["0", "1.5", "1", "-0.5", "nan"])
def test_simulate_rejects_theta_before_writing_the_trajectory(tmp_path, capsys, theta):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--gen", "stratified", "--steps", "50", "--theta", theta,
              "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument --theta: must lie in (0, 1), got {theta}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--gen-top", "nan", "must be a finite number > 0, got nan"),
    ("--gen-top", "-1", "must be a finite number > 0, got -1"),
    ("--gen-ratio", "nan", "must be a finite number >= 1, got nan"),
    ("--gen-ratio", "0.5", "must be a finite number >= 1, got 0.5"),
    ("--gen-alpha", "inf", "must be a finite number >= 0, got inf"),
    ("--gen-alpha", "-0.1", "must be a finite number >= 0, got -0.1"),
    ("--gen-b-scale", "inf", "must be a finite number, got inf"),
    ("--gen-b-scale", "x", "invalid finite value: 'x'"),
])
def test_simulate_gen_numbers_exit_2_naming_the_flag(tmp_path, capsys, flag, value, message):
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--gen", "stratified", "--steps", "5", flag, value,
                  "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_gen_uniform_top_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--gen", "uniform", "--steps", "5", "--gen-uniform-top", "0.3",
              "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode, defaults", [
    ("stratified", ["--gen-n", "3", "--gen-top", "1.0", "--gen-ratio", "100",
                    "--gen-alpha", "0.05", "--gen-b-scale", "0.005"]),
    ("uniform", ["--gen-n", "3", "--gen-top", "0.3", "--gen-alpha", "0.05",
                 "--gen-b-scale", "0.005"]),
])
def test_simulate_gen_defaults_depend_on_the_mode(tmp_path, mode, defaults):
    argv = ["simulate", "--gen", mode, "--steps", "50", "--seed", "4"]
    assert main(argv + ["--out-dir", str(tmp_path / "implicit")]) == 0
    assert main(argv + defaults + ["--out-dir", str(tmp_path / "explicit")]) == 0
    assert out_hashes(tmp_path / "implicit") == out_hashes(tmp_path / "explicit")
    # the other mode's top gives another system
    other = "0.3" if mode == "stratified" else "1.0"
    assert main(argv + ["--gen-top", other, "--out-dir", str(tmp_path / "other")]) == 0
    assert sha256(tmp_path / "other" / "system.json") != sha256(tmp_path / "implicit" / "system.json")


def test_simulate_requires_steps_for_discrete(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "uniform", "--out-dir", str(out)])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--gen", "stratified", "--steps", "0"],
    ["--gen", "stratified", "--steps", "-1"],
    ["--gen", "stratified"],
    ["--gen", "uniform"],
    ["--gen", "stratified", "--gen-n", "0", "--steps", "5"],
    ["--gen", "stratified", "--steps", "5", "--x0", "1,2"],
    ["--gen", "stratified", "--steps", "5", "--snapshots", "1,99"],
])
def test_simulate_gen_rejects_bad_input_writing_no_file(tmp_path, argv):
    # system.json too: the generated system is saved only after every check
    out = tmp_path / "run"
    try:
        code = main(["simulate", *argv, "--out-dir", str(out)])
    except SystemExit as exc:  # argparse rejects a count below 1
        code = exc.code
    assert code == 2
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("below, message", [
    ("", "File exists"),
    ("sub", "Not a directory"),
])
def test_out_dir_that_cannot_be_made_exits_2_naming_the_flag(tmp_path, capsys, below, message):
    matrix = tmp_path / "m.csv"
    matrix.write_text("1,2\n3,4\n")
    (tmp_path / "F").write_text("")
    out = tmp_path / "F" / below if below else tmp_path / "F"
    assert main(["svd-report", str(matrix), "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out-dir {out}: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["F", "m.csv"]
    assert (tmp_path / "F").read_text() == ""


@pytest.mark.parametrize("argv, message", [
    (["--t-end", "1e300", "--dt", "1e-300"],
     "--t-end 1e+300 --dt 1e-300: more steps than can be counted"),
    # 2 PiB of states, more than any address space holds
    (["--gen", "stratified", "--steps", "100000000000000"],
     "--steps 100000000000000: Unable to allocate"),
    # counts numpy cannot size an array for
    (["--t-end", "1e10", "--dt", "1e-10"], "--t-end 1e+10 --dt 1e-10: "),
    (["--gen", "stratified", "--steps", "100000000000000000000"],
     "--steps 100000000000000000000: "),
])
def test_simulate_with_too_many_steps_exits_2_naming_the_flags(tmp_path, capsys, argv, message):
    if "--t-end" in argv:
        write_tanh_system(tmp_path / "tanh.json")
        argv = [str(tmp_path / "tanh.json"), *argv]
    out = tmp_path / "run"
    assert main(["simulate", *argv, "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert list(out.iterdir()) == []


def test_simulate_with_a_system_file_and_gen_exits_2_naming_both(tmp_path, capsys):
    # the file does not exist: the conflict is found before anything is read
    code = main(["simulate", "/nonexistent/system.json", "--gen", "stratified",
                 "--steps", "10", "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == ("error: give a system file (/nonexistent/system.json) "
                                       "or --gen stratified, not both\n")
    assert list(tmp_path.iterdir()) == []


def test_probe_synthetic_outputs(tmp_path):
    out = tmp_path / "run"
    code = main(["probe", "--synthetic", "--classes", "3", "--dim", "8",
                 "--per-class", "60", "--epochs", "1", "--seed", "1",
                 "--probes-per-category", "4", "--out-dir", str(out)])
    assert code == 0
    with open(out / "cvtrace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["checkpoint", "sample_id", "category", "cv",
                       "sv_1", "sv_2", "sv_3", "sv_4"]
    categories = {r[2] for r in rows[1:]}
    assert categories == {"train_class", "held_out_class", "natural_noise",
                          "random_noise"}
    strat = (out / "stratification.csv").read_text().splitlines()
    assert strat[0] == "group,n_samples,mean_cv,median_cv"
    assert len(strat) == 5
    from attrakit.probe import load_net
    net = load_net(out / "model.json")
    assert net.layer_dims == (8, 128, 64, 3)


def test_probe_synthetic_defaults_accuracy_and_cv_ordering(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["probe", "--synthetic", "--classes", "3", "--epochs", "5",
                 "--seed", "1", "--out-dir", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    acc = float(stdout.split("train accuracy ")[1].split()[0])
    assert acc >= 0.95
    with open(out / "cvtrace.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    final = max(int(r[0]) for r in rows)
    cvs = {"train_class": [], "random_noise": []}
    for r in rows:
        if int(r[0]) == final and r[2] in cvs:
            cvs[r[2]].append(float(r[3]))
    assert np.mean(cvs["train_class"]) > np.mean(cvs["random_noise"])


def test_probe_missing_mnist_files(tmp_path):
    code = main(["probe", "--mnist", str(tmp_path / "img"), str(tmp_path / "lbl"),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2


def test_probe_mnist_fixture_with_holdout(tmp_path):
    img_path, lbl_path = write_idx_fixture(tmp_path, n_classes=4)
    out = tmp_path / "run"
    code = main(["probe", "--mnist", str(img_path), str(lbl_path),
                 "--holdout-digit", "3", "--epochs", "1", "--seed", "2",
                 "--probes-per-category", "3", "--out-dir", str(out)])
    assert code == 0
    strat = (out / "stratification.csv").read_text()
    assert "held_out_class" in strat
    with open(out / "cvtrace.csv") as fh:
        rows = list(csv.reader(fh))
    assert {"held_out_class", "natural_noise"} <= {r[2] for r in rows[1:]}
    manifest = json.loads((out / "manifest.json").read_text())
    assert str(img_path) in manifest["inputs"]


def test_probe_mnist_max_items(tmp_path):
    img_path, lbl_path = write_idx_fixture(tmp_path, n_classes=3, per_class=40)
    out = tmp_path / "run"
    code = main(["probe", "--mnist", str(img_path), str(lbl_path),
                 "--max", "90", "--epochs", "1", "--seed", "3",
                 "--probes-per-category", "2", "--out-dir", str(out)])
    assert code == 0


@pytest.mark.parametrize("flag", ["--samples-per-group", "--probes-per-category", "--max",
                                  "--per-class", "--epochs", "--batch-size"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_probe_counts_below_one_exit_2_naming_the_flag(tmp_path, capsys, flag, value):
    img_path, lbl_path = write_idx_fixture(tmp_path, n_classes=3, per_class=4)
    source = (["--mnist", str(img_path), str(lbl_path)] if flag == "--max"
              else ["--synthetic"])
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exc:
        main(["probe", *source, flag, value, "--out-dir", str(out)])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--separation", "nan"], "separation must be a finite number >= 0, got nan"),
    (["--separation", "inf"], "separation must be a finite number >= 0, got inf"),
    (["--classes", "1"], "--classes must be >= 2, got 1"),
    (["--classes", "0"], "--classes must be >= 2, got 0"),
    (["--classes", "3", "--dim", "4"], "--dim must be at least --classes + 2 = 5, got 4"),
    (["--classes", "11"], "--dim must be at least --classes + 2 = 13, got 12"),
])
def test_probe_bad_synthetic_data_exits_2_before_training(tmp_path, capsys, flags, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["probe", "--synthetic", *flags, "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("source, flags", [
    ("--mnist", ["--max", "5"]),
    ("--mnist", ["--holdout-digit", "3"]),
    ("--synthetic", ["--classes", "3"]),
    ("--synthetic", ["--dim", "12"]),
    ("--synthetic", ["--per-class", "1000"]),
    ("--synthetic", ["--separation", "6.0"]),
])
def test_probe_flags_of_the_other_source_exit_2_naming_the_flag(tmp_path, capsys, source,
                                                               flags):
    # each flag is given at its default value, so only its presence is rejected;
    # the MNIST files do not exist, so the check comes before any is read
    other = (["--synthetic"] if source == "--mnist"
             else ["--mnist", str(tmp_path / "img"), str(tmp_path / "lbl")])
    code = main(["probe", *other, *flags, "--out-dir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {flags[0]} applies only to probe {source}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, flag", [
    (["construct", "--p", "4", "--z", "2", "--m", "1"], "--samples"),
    (["analyze", "system.json"], "--starts"),
])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_construct_and_analyze_counts_below_one_exit_2_naming_the_flag(tmp_path, capsys, argv,
                                                                       flag, value):
    # checked while parsing, so analyze never reads its (missing) system file
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, value, "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= 1, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_construct_c_max_not_finite_and_positive_exits_2_naming_the_flag(tmp_path, capsys,
                                                                         value):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--p", "4", "--z", "2", "--m", "1", "--c-max", value,
              "--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2
    assert (f"argument --c-max: must be a finite number > 0, got {value}"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_svd_report_csv_matrix(tmp_path):
    matrix_path = tmp_path / "m.csv"
    np.savetxt(matrix_path, np.diag([4.0, 3.0, 0.0]), delimiter=",")
    out = tmp_path / "run"
    code = main(["svd-report", str(matrix_path), "--out-dir", str(out)])
    assert code == 0
    # the infinite gap past the zero is null: RFC 8259 has no Infinity token
    report = json.loads((out / "spectrum.json").read_text(),
                        parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))
    assert report["rank"] == 2
    assert np.allclose(report["singular_values"], [4.0, 3.0, 0.0])
    assert report["max_gap_ratio"] is None


def test_svd_report_system_json(tmp_path):
    system_path = tmp_path / "sys.json"
    write_tanh_system(system_path)
    out = tmp_path / "run"
    code = main(["svd-report", str(system_path), "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "spectrum.json").read_text())
    assert np.allclose(report["singular_values"], [1.0])


@pytest.mark.parametrize("document, message", [
    ({"W": [[{}, 1.0], [0.0, 1.0]]}, "W must be an array of numbers"),
    ({"W": [["1", 1.0], [0.0, 1.0]]}, "W must be an array of numbers"),
    (3, "no 'W' matrix"),
    ({"W": [1.0, 2.0]}, "bad.json: expected a matrix with entries, got shape (2,)"),
    ({"W": []}, "bad.json: expected a matrix with entries, got shape (0,)"),
    ({"W": [[]]}, "bad.json: expected a matrix with entries, got shape (1, 0)"),
])
def test_svd_report_rejects_a_malformed_system_file(tmp_path, capsys, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code = main(["svd-report", str(path), "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n\n", "# a comment only\n"])
def test_svd_report_rejects_a_csv_without_entries(tmp_path, capsys, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["svd-report", str(path), "--out-dir", str(out)])
    assert code == 2
    assert f"{path}: expected a matrix with entries, got shape (0, 1)" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("text, shape", [("1\n2\n3\n", "3x1"), ("1,2,3\n", "1x3")])
def test_svd_report_reads_a_csv_column_as_a_column(tmp_path, capsys, text, shape):
    path = tmp_path / "v.csv"
    path.write_text(text)
    assert main(["svd-report", str(path), "--out-dir", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.startswith(f"{shape} matrix: rank 1")


def test_svd_report_rank_tol_flag(tmp_path):
    matrix_path = tmp_path / "m.csv"
    np.savetxt(matrix_path, np.diag([1.0, 1e-5]), delimiter=",")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["svd-report", str(matrix_path), "--out-dir", str(out1)]) == 0
    assert main(["svd-report", str(matrix_path), "--rank-tol", "1e-3",
                 "--out-dir", str(out2)]) == 0
    assert json.loads((out1 / "spectrum.json").read_text())["rank"] == 2
    assert json.loads((out2 / "spectrum.json").read_text())["rank"] == 1


@pytest.mark.parametrize("argv", [
    ["construct", "--p", "4", "--z", "2", "--m", "1", "--rank-tol", "1e-3"],
    ["simulate", "--gen", "stratified", "--steps", "5", "--rank-tol", "1e-3"],
    ["probe", "--synthetic", "--rank-tol", "1e-3"],
    ["analyze", "system.json", "--workers", "2"],
    ["svd-report", "m.csv", "--workers", "2"],
])
def test_unread_options_are_rejected(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out-dir", str(tmp_path / "run")])
    assert exc.value.code == 2


def test_analyze_takes_rank_tol():
    parser = build_parser()
    assert parser.parse_args(["analyze", "system.json"]).rank_tol == 1e-8
    assert parser.parse_args(["analyze", "system.json", "--rank-tol", "1e-3"]).rank_tol == 1e-3


@pytest.mark.parametrize("rank_tol, row", [
    ([], (2, 0, "stable", 0)),
    (["--rank-tol", "1e-3"], (1, 1, "marginal", 1)),
])
def test_rank_tol_moves_the_rank_and_the_marginal_band_together(tmp_path, capsys, rank_tol, row):
    # J = diag(-1, -1e-4) everywhere: the slow mode is under a cut of 1e-3
    # times s_max = 1 for the rank and for the stability boundary alike
    system_path = tmp_path / "slow.json"
    save_system(make_system(W=np.diag([0.0, 1.0 - 1e-4]), A=np.eye(2), b=np.zeros(2),
                            activation=Activation.identity, form=SystemForm.post_activation),
                system_path)
    out = tmp_path / "run"
    assert main(["analyze", str(system_path), "--box", "-1", "1", "--starts", "4",
                 *rank_tol, "--out-dir", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 equilibria in box [-1.0, 1.0]^2"
    _, _, rank, dim, stability, grazing = lines[2].split()[:6]
    assert (int(rank), int(dim), stability, int(grazing)) == row


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for tests and scripts
    code = ("import attrakit, attrakit.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    done = run_python("-c", code, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("module, frozen", [("attrakit", False), ("attrakit.cli", True)])
def test_only_the_cli_import_freezes_the_collector(module, frozen):
    # the CLI freezes what its imports made, and still collects what comes after
    code = (f"import gc, {module}\n"
            "cycle = []\n"
            "cycle.append(cycle)\n"
            "del cycle\n"
            "print(gc.get_freeze_count(), gc.isenabled(), gc.collect())\n")
    count, enabled, collected = run_python("-c", code, check=True).stdout.split()
    assert (int(count) > 0) == frozen
    assert enabled == "True" and int(collected) >= 1


def run_simulate_seeing_cpus(out_dir: Path, cpus: int):
    """simulate in a subprocess whose stdout is a pipe and that sees `cpus` usable CPUs."""
    argv = ["simulate", "--gen", "stratified", "--steps", "5000", "--snapshots", "1,5000",
            "--seed", "3", "--out-dir", str(out_dir)]
    # "start" sits in the block-buffered stdout when the writer forks, so a
    # forked process that flushed what it inherited would print it twice
    code = ("import os, sys\n"
            "assert not (sys.stdout.write_through or sys.stdout.line_buffering)\n"
            "import attrakit._forked as _forked\n"
            f"_forked.usable_cpus = lambda: {cpus}\n"
            "forks = []\n"
            "fork = os.fork\n"
            "def counting_fork():\n"
            "    pid = fork()\n"
            "    forks.append(pid)\n"
            "    return pid\n"
            "os.fork = counting_fork\n"
            "print('start')\n"
            "from attrakit.cli import main\n"
            f"code = main({argv!r})\n"
            "print('forks', len(forks), file=sys.stderr)\n"
            "sys.exit(code)\n")
    return run_python("-c", code, unset=("PYTHONUNBUFFERED",), timeout=120)


def test_simulate_split_csv_writer_matches_serial_run(tmp_path):
    split = run_simulate_seeing_cpus(tmp_path / "split", 2)
    serial = run_simulate_seeing_cpus(tmp_path / "serial", 1)
    for done in (split, serial):
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert lines[0] == "start" and len(lines) == 2
        assert sum(line.startswith("steps=5000 ") for line in lines) == 1
    assert split.stdout == serial.stdout
    assert split.stderr == "forks 1\n" and serial.stderr == "forks 0\n"
    hashes = [{Path(o["path"]).name: o["sha256"]
               for o in json.loads((tmp_path / label / "manifest.json").read_text())["outputs"]}
              for label in ("split", "serial")]
    assert hashes[0] == hashes[1]
    assert sorted(hashes[0]) == ["slowfast.json", "snapshots.csv", "system.json",
                                 "trajectory.csv"]
    assert sorted(p.name for p in (tmp_path / "split").iterdir()) == sorted(
        ["manifest.json", *hashes[0]])


# the stepped cases' row counts sit around multiples of R rows
R = 2048


def simulate_argv(tmp_path, form, rows):
    """simulate argv whose trajectory.csv has `rows` rows past the map's step 0.

    form is "map" (n = 3, with snapshots), "rk4" (n = 1) or "rk4-wide"
    (n = 12, rows of 15 cells).
    """
    if form == "map":
        return ["simulate", "--gen", "stratified", "--steps", str(rows),
                "--snapshots", f"1,{rows // 2},{rows}", "--seed", "3"]
    system_path = tmp_path / "tanh.json"
    if form == "rk4":
        write_tanh_system(system_path)
    else:
        rng = np.random.default_rng(12)
        save_system(make_system(W=rng.standard_normal((12, 12)) / 4.0, A=np.eye(12),
                                b=0.1 * rng.standard_normal(12), activation=Activation.tanh,
                                form=SystemForm.pre_activation), system_path)
    dt = 2.0 ** -10  # so that t_end / dt is exactly the step count
    return ["simulate", str(system_path), "--t-end", repr((rows - 1) * dt), "--dt", repr(dt),
            "--seed", "3"]


def run_on_cpus(monkeypatch, capsys, argv, out, cpus):
    """stdout and output hashes of a run that sees `cpus` usable CPUs; no stray file is left."""
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    assert main(argv + ["--out-dir", str(out)]) == 0
    outputs = [Path(o["path"]).name
               for o in json.loads((out / "manifest.json").read_text())["outputs"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *outputs])
    return capsys.readouterr(), out_hashes(out)


@pytest.mark.parametrize("rows", [R - 48, 2 * R - 1, 2 * R, 2 * R + 1, 3 * R + 5, 5000])
@pytest.mark.parametrize("form", ["map", "rk4", "rk4-wide"])
def test_simulate_formatting_while_stepping_writes_the_bytes_of_one_cpu(
        tmp_path, monkeypatch, capsys, forks, form, rows):
    # one formatter per stepped CSV, on 2 CPUs as on 3; none on 1 CPU, and
    # none for snapshots.csv, whose rows are all ready at once
    argv = simulate_argv(tmp_path, form, rows)
    one = run_on_cpus(monkeypatch, capsys, argv, tmp_path / "one", 1)
    assert forks == []
    for forked, cpus in enumerate((2, 3), start=1):
        assert run_on_cpus(monkeypatch, capsys, argv, tmp_path / f"cpus{cpus}", cpus) == one
        assert len(forks) == forked


@pytest.mark.parametrize("failing_block", [None, 0, 5], ids=["works", "fails-first", "fails-mid"])
def test_simulate_formats_here_only_rows_the_formatter_did_not_write(
        tmp_path, monkeypatch, capsys, forks, failing_block):
    # a formatter that fails, at its first block or mid-run after 5, leaves
    # every row to this process; either way the file holds the bytes of one
    # CPU and nothing hangs
    argv = simulate_argv(tmp_path, "map", 3 * R + 5)
    one = run_on_cpus(monkeypatch, capsys, argv, tmp_path / "one", 1)
    parent = os.getpid()
    format_block = simulate.CsvRows._format
    formatted = []

    def format_or_fail(rows, block, out):
        formatted.append(int(block[0, 0]))
        if os.getpid() != parent and failing_block is not None and len(formatted) > failing_block:
            raise RuntimeError("the formatter fails")
        format_block(rows, block, out)
    monkeypatch.setattr(simulate.CsvRows, "_format", format_or_fail)
    assert run_on_cpus(monkeypatch, capsys, argv, tmp_path / "two", 2) == one
    assert len(forks) == 1
    # here: snapshots.csv's one block, after every block of trajectory.csv
    # from step 1 on when the formatter failed
    trajectory = [] if failing_block is None else [*range(1, 3 * R + 5, 256)]
    assert formatted == [*trajectory, 1]


@pytest.mark.parametrize("form", ["map", "rk4"])
def test_simulate_forks_a_formatter_before_the_last_block_is_stepped(tmp_path, monkeypatch,
                                                                     capsys, forks, form):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 2)
    forks_at_check = []
    check_block = simulate._check_block

    def recording_check_block(states, lo, hi):
        forks_at_check.append(len(forks))
        check_block(states, lo, hi)
    monkeypatch.setattr(simulate, "_check_block", recording_check_block)
    argv = simulate_argv(tmp_path, form, 5000) + ["--out-dir", str(tmp_path / "run")]
    assert main(argv) == 0
    # forked once the first block has passed its check
    assert forks_at_check == [0] + [1] * (len(forks_at_check) - 1)


PROBE_ARGV = ["probe", "--synthetic", "--classes", "3", "--dim", "8", "--per-class", "60",
              "--epochs", "2", "--probes-per-category", "4", "--samples-per-group", "20",
              "--seed", "5"]


def test_probe_taking_spectra_in_a_second_process_writes_the_bytes_of_one_cpu(
        tmp_path, monkeypatch, capsys, forks, openblas):
    one = run_on_cpus(monkeypatch, capsys, PROBE_ARGV, tmp_path / "one", 1)
    assert forks == []
    assert run_on_cpus(monkeypatch, capsys, PROBE_ARGV, tmp_path / "two", 2) == one
    assert len(forks) == 1


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("recipe", ["analyze", "map", "rk4", "probe"])
def test_a_fork_that_cannot_start_leaves_its_work_to_this_process(tmp_path, monkeypatch,
                                                                  capsys, request, recipe):
    # os.fork failing as at a process limit, on 2 usable CPUs: the starts
    # of the range, the rows of the formatter or the probe's spectra are
    # done here, so the run writes the bytes of one CPU and leaves no feed
    # or descriptor behind
    if recipe == "probe":
        request.getfixturevalue("openblas")  # train forks only where it can pin OpenBLAS
    if recipe == "analyze":
        assert main(["construct", "--p", "6", "--z", "4", "--m", "2", "--seed", "3",
                     "--out-dir", str(tmp_path / "construct")]) == 0
        capsys.readouterr()
        argv = ["analyze", str(tmp_path / "construct" / "system.json"), "--starts", "64",
                "--seed", "3"]
    elif recipe == "probe":
        argv = PROBE_ARGV
    else:
        argv = simulate_argv(tmp_path, recipe, 5000)
    one = run_on_cpus(monkeypatch, capsys, argv, tmp_path / "one", 1)
    tries = []

    def cannot_fork():
        tries.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    monkeypatch.setattr(os, "fork", cannot_fork)
    fds = sorted(os.listdir("/proc/self/fd"))
    assert run_on_cpus(monkeypatch, capsys, argv, tmp_path / "two", 2) == one
    assert len(tries) == 1
    assert _forked._feeds == set()
    assert sorted(os.listdir("/proc/self/fd")) == fds


def grow_system(path):
    # x(t+1) = 1.003 x(t): from x0 = 1 it passes 1e12 near step 9,225, long
    # after simulate's CSV formatter forked
    save_system(make_system(W=[[0.0]], A=[[-1.003]], b=[0.0], activation=Activation.identity,
                            form=SystemForm.discrete_map), path)
    return path


def test_simulate_diverging_after_forks_leaves_no_file_and_no_process(tmp_path, monkeypatch,
                                                                      capsys, forks):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 2)
    system_path = grow_system(tmp_path / "grow.json")
    out = tmp_path / "run"
    code = main(["simulate", str(system_path), "--steps", "20000", "--x0", "1",
                 "--out-dir", str(out)])
    assert code == 3
    assert "at step 92" in capsys.readouterr().err
    assert len(forks) == 1
    # no trajectory.csv, system.json, manifest, part or temporary file
    assert list(out.iterdir()) == []


def test_construct_failing_its_verification_exits_1_and_writes_no_manifest(tmp_path, capsys):
    # at c_max 1e12 the built system's residuals exceed the check's tolerance
    out = tmp_path / "run"
    assert main(["construct", "--p", "4", "--z", "3", "--m", "2", "--c-max", "1e12",
                 "--samples", "5", "--seed", "1", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line.split("(")[0] for line in err[:-1]] == [
        f"  sample {i}: residual check failed " for i in range(5)]
    assert err[-1] == "construction failed: verification failed; see diagnostics above"
    assert sorted(p.name for p in out.iterdir()) == ["system.json", "verification.json"]
    assert json.loads((out / "verification.json").read_text())["passed"] is False


@pytest.mark.parametrize("cpus", [1, 2])
def test_probe_diverging_exits_4_with_one_line(tmp_path, monkeypatch, capsys, request, cpus):
    if cpus > 1:
        forks = request.getfixturevalue("forks")
        get, set_ = request.getfixturevalue("openblas")
        set_(2)
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["probe", "--synthetic", "--lr", "1e6", "--epochs", "1", "--per-class",
                     "100", "--probes-per-category", "4", "--seed", "1", "--out-dir", str(out)])
    assert code == 4
    assert capsys.readouterr().err == (
        "training failed: non-finite loss nan at batch 6 (lr=1000000.0)\n")
    assert list(out.iterdir()) == []
    if cpus > 1:
        # the spectra process was forked, and is reaped (see the forks fixture)
        assert len(forks) == 1
        assert _forked._feeds == set()
        assert get() == 2


@pytest.mark.parametrize("argv, code", [
    (["construct", "--p", "4", "--z", "2", "--m", "1", "--c-max", "2", "--seed", "5"], 0),
    (["construct", "--p", "4", "--z", "3", "--m", "2", "--c-max", "1e12", "--samples", "5",
      "--seed", "1"], 1),
    (["construct", "--p", "4", "--z", "2", "--m", "1", "--bogus"], 2),
    (["simulate", "grow.json", "--steps", "20000", "--x0", "1"], 3),
    (["probe", "--synthetic", "--lr", "1e6", "--epochs", "1", "--per-class", "100",
      "--probes-per-category", "4", "--seed", "1"], 4),
], ids=["0", "1", "2", "3", "4"])
def test_process_exit_matches_main(tmp_path, monkeypatch, capsys, argv, code):
    # `python -m attrakit.cli` ends through the interpreter's own exit, with
    # the CLI's import-time objects frozen; it must print, write and exit as
    # main() does in this process
    grow_system(tmp_path / "grow.json")
    argv = [str(tmp_path / a) if a == "grow.json" else a for a in argv] + ["--out-dir", "run"]
    runs = []
    for where in ("main", "process"):
        cwd = tmp_path / where
        cwd.mkdir()
        if where == "main":
            monkeypatch.chdir(cwd)
            try:
                got = main(argv)
            except SystemExit as exc:  # argparse's exit 2
                got = exc.code
            out, err = capsys.readouterr()
        else:
            # block-buffered, as a user's pipe is, so the exit must flush it
            done = run_python("-m", "attrakit.cli", *argv, unset=("PYTHONUNBUFFERED",),
                              cwd=cwd, timeout=120)
            got, out, err = done.returncode, done.stdout, done.stderr
        run = cwd / "run"
        made = sorted(os.listdir(run)) if run.exists() else None
        runs.append((got, out, err, made, out_hashes(run) if made else {}))
    assert runs[0][0] == code
    assert runs[1] == runs[0]
    # every output is in place, and no temporary file or part is left
    assert not any(name.endswith(".tmp") for name in runs[1][3] or [])


def test_readme_recipes_parse():
    # every `attrakit ...` line of README's command-line block, continuations joined
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    recipes = [line.strip() for line in block.replace("\\\n", " ").splitlines()
               if line.strip().startswith("attrakit ")]
    assert len(recipes) >= 7
    parser = build_parser()
    for recipe in recipes:
        try:
            parser.parse_args(shlex.split(recipe)[1:])
        except SystemExit:
            pytest.fail(f"README recipe does not parse: {recipe}")


def test_analyze_rerun_reproduces_hashes(tmp_path):
    system_path = tmp_path / "tanh.json"
    write_tanh_system(system_path)
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["analyze", str(system_path), "--box", "-3", "3", "--seed", "4"]
    assert main(args + ["--out-dir", str(a)]) == 0
    assert main(args + ["--out-dir", str(b)]) == 0
    assert out_hashes(a) == out_hashes(b)


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_analyze_on_every_cpu_matches_a_one_cpu_run(tmp_path):
    # analyze refines its 64 starts in one range per usable CPU; the run
    # pinned to one CPU forks nothing, and both must give the same bytes
    def run(argv, preexec_fn):
        done = run_python("-m", "attrakit.cli", *argv, timeout=120, preexec_fn=preexec_fn)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        return done.stdout

    runs = []
    for preexec_fn in (None, pin_to_one_cpu):
        out = tmp_path / ("one" if preexec_fn else "every")
        stdout = run(["construct", "--p", "6", "--z", "4", "--m", "2",
                      "--out-dir", str(out / "construct")], preexec_fn)
        stdout += run(["analyze", str(out / "construct" / "system.json"), "--starts", "64",
                       "--out-dir", str(out / "analyze")], preexec_fn)
        runs.append((stdout, out_hashes(out / "construct"), out_hashes(out / "analyze")))
    assert runs[0] == runs[1]
    assert list(runs[0][2]) == ["equilibria.json"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_wide_analyze_on_every_cpu_matches_a_one_cpu_run(tmp_path, openblas):
    # at n = 200 the Newton solves' products sum 200 terms, which OpenBLAS
    # blocks differently on one thread and on more; every range runs them
    # on one thread, so the bytes do not depend on the CPU count
    def run(argv, preexec_fn):
        done = run_python("-m", "attrakit.cli", *argv, timeout=300, preexec_fn=preexec_fn)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        return done.stdout

    system = tmp_path / "construct" / "system.json"
    run(["construct", "--p", "120", "--z", "80", "--m", "3", "--seed", "7",
         "--out-dir", str(system.parent)], None)
    runs = []
    for preexec_fn in (None, pin_to_one_cpu):
        out = tmp_path / ("one" if preexec_fn else "every")
        stdout = run(["analyze", str(system), "--box", "-5", "5", "--starts", "32",
                      "--seed", "7", "--out-dir", str(out)], preexec_fn)
        runs.append((stdout, out_hashes(out)))
    assert runs[0] == runs[1]
    assert list(runs[0][1]) == ["equilibria.json"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_probe_mnist_on_every_cpu_matches_a_one_cpu_run(tmp_path, openblas):
    # the first layer's 32x784 by 784x128 products sum 784 terms, which
    # OpenBLAS blocks differently on one thread and on two; train runs
    # them on one thread, so the bytes do not depend on the CPU count
    images, labels = write_idx_fixture(tmp_path, n_classes=10, per_class=60, side=28)
    runs = []
    for preexec_fn in (None, pin_to_one_cpu):
        out = tmp_path / ("one" if preexec_fn else "every")
        done = run_python(
            "-m", "attrakit.cli", "probe", "--mnist", str(images), str(labels),
            "--holdout-digit", "4", "--epochs", "1", "--probes-per-category", "4",
            "--samples-per-group", "10", "--seed", "5", "--out-dir", str(out),
            timeout=120, preexec_fn=preexec_fn)
        assert done.returncode == 0 and done.stderr == "", done.stderr
        runs.append((done.stdout, out_hashes(out)))
    assert runs[0] == runs[1]
    assert sorted(runs[0][1]) == ["cvtrace.csv", "model.json", "stratification.csv",
                                  "stratification_samples.csv"]
