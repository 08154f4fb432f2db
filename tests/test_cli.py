import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.cli import build_parser, main, subseed
from attrakit.dynsys import Activation, SystemForm, make_system, save_system
from attrakit.probe import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC


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
        base = np.full((side, side), 40 * (label + 1), dtype=float)
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
    code = main([argv[0], str(system_path), "--rank-tol", "nan",
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert "rel_tol must be positive and finite" in capsys.readouterr().err


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


@pytest.mark.parametrize("theta", ["0", "1.5"])
def test_simulate_rejects_theta_before_writing_the_trajectory(tmp_path, capsys, theta):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "stratified", "--steps", "50", "--theta", theta,
                 "--out-dir", str(out)])
    assert code == 2
    assert "theta must lie in (0, 1)" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "slowfast.json").exists()


def test_simulate_requires_steps_for_discrete(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--gen", "uniform", "--out-dir", str(out)])
    assert code == 2


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
])
def test_svd_report_rejects_a_malformed_system_file(tmp_path, capsys, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code = main(["svd-report", str(path), "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert message in capsys.readouterr().err


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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is for tests and scripts
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import attrakit, attrakit.cli, sys; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert done.stdout.strip() == "[]"


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
