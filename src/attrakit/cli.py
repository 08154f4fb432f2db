"""Command line front end: reproducible experiment recipes with file outputs.

Every subcommand writes its artifacts into --out-dir plus a manifest.json
recording the command line, seed, input hashes, output hashes, and wall
clock time. All randomness is derived from --seed through fixed named
sub-streams, so reruns with identical flags reproduce identical outputs.

Exit codes: 0 success, 1 construction failure, 2 usage or input error,
3 numerical divergence, 4 training failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np
# numpy 2 loads numpy.random on first use; the seeded subcommands all use it,
# so load it with the program and keep it out of the manifest's duration_s
import numpy.random  # noqa: F401

from . import __version__
from .construct import (
    ConstructionError,
    construct_relu_attractor,
    save_constructed,
    verify_construction,
)
from .dynsys import _json_numbers, load_system, save_system, write_json
from .equilibria import find_equilibria, reports_to_json
from .probe import (
    HELD_OUT_CLASS,
    NATURAL_NOISE,
    RANDOM_NOISE,
    TRAIN_CLASS,
    Dataset,
    TinyNet,
    TrainConfig,
    TrainingDivergedError,
    accuracy,
    exclude_label,
    load_idx,
    make_probe_samples,
    save_net,
    stratification_study,
    synth_blobs,
    train,
    write_group_samples_csv,
    write_group_stats_csv,
)
from .simulate import (
    DivergenceError,
    integrate_rk4,
    iterate_map,
    sine_map_system,
    slow_fast_report,
    slow_fast_to_dict,
    trajectory_to_csv,
    write_csv_rows,
)
from .spectral import DEFAULT_RANK_TOL, spectrum_to_dict, svd_spectrum

# named sub-streams hanging off the single --seed
_STREAM_CONSTRUCT = 0
_STREAM_VERIFY = 1
_STREAM_STARTS = 2
_STREAM_X0 = 3
_STREAM_TRAIN = 4
_STREAM_PROBES = 5
_STREAM_GEN = 6
_STREAM_DATA = 7


def subseed(seed: int, stream: int) -> int:
    """Deterministic per-purpose seed derived from the global one."""
    return int(np.random.SeedSequence([int(seed), int(stream)]).generate_state(1)[0])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, argv, seed, inputs, outputs, duration):
    manifest = {
        "command": argv,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in outputs],
        "duration_s": duration,
    }
    write_json(out_dir / "manifest.json", manifest)


def cmd_construct(args):
    ca = construct_relu_attractor(args.p, args.z, args.m, seed=subseed(args.seed, _STREAM_CONSTRUCT),
                                  c_max=args.c_max)
    report = verify_construction(ca, n_samples=args.samples,
                                 seed=subseed(args.seed, _STREAM_VERIFY))
    out_dir = Path(args.out_dir)
    system_path = out_dir / "system.json"
    save_constructed(ca, system_path)
    verification_path = out_dir / "verification.json"
    write_json(verification_path, {
        "n": ca.n,
        "m": ca.m,
        "expected_rank": report.expected_rank,
        "n_samples": report.n_samples,
        "max_residual": report.max_residual,
        "ranks": report.ranks.tolist(),
        "zero_eig_counts": report.zero_eig_counts.tolist(),
        "max_nonzero_realpart": report.max_nonzero_realpart,
        "failures": [list(f) for f in report.failures],
        "passed": report.passed,
    })
    n = ca.n
    print(f"constructed n={n} (p={ca.p}, z={ca.z}), attractor dim m={ca.m}")
    print(f"verification over {report.n_samples} samples: "
          f"rank = {report.expected_rank} = n - m, "
          f"max residual {report.max_residual:.3e}, "
          f"{'passed' if report.passed else 'FAILED'}")
    if not report.passed:
        for sample, check, value in report.failures:
            print(f"  sample {sample}: {check} check failed ({value})", file=sys.stderr)
        raise ConstructionError("verification failed; see diagnostics above")
    return [], [system_path, verification_path]


def cmd_analyze(args):
    system_path = Path(args.system)
    sys_obj = load_system(system_path)
    reports = find_equilibria(sys_obj, box=(args.box[0], args.box[1]),
                              n_starts=args.starts,
                              seed=subseed(args.seed, _STREAM_STARTS),
                              rel_tol=args.rank_tol)
    out_dir = Path(args.out_dir)
    eq_path = out_dir / "equilibria.json"
    write_json(eq_path, reports_to_json(reports))
    print(f"{len(reports)} equilibria in box [{args.box[0]}, {args.box[1]}]^{sys_obj.n}")
    print(f"{'#':>3} {'residual':>12} {'rank':>5} {'dim':>4} "
          f"{'stability':>10} {'grazing':>7}  point")
    for i, r in enumerate(reports):
        coords = ", ".join(f"{v:.6g}" for v in r.point)
        print(f"{i:>3} {r.residual:>12.3e} {r.spectrum.numerical_rank:>5} "
              f"{r.attractor_dim:>4} {r.stability:>10} {r.marginal_count:>7}  ({coords})")
    return [system_path], [eq_path]


def _parse_x0(text: str, n: int) -> np.ndarray:
    try:
        x0 = np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ValueError(f"--x0 must be comma-separated numbers, got {text!r}") from None
    if x0.shape != (n,):
        raise ValueError(f"--x0 has {x0.shape[0]} values, the system dimension is {n}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"--x0 must be finite, got {text!r}")
    return x0


def _count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_snapshots(text: str) -> list[int]:
    try:
        steps = sorted({int(v) for v in text.split(",")})
    except ValueError:
        raise ValueError(f"--snapshots must be comma-separated integers, got {text!r}") from None
    if steps[0] < 0:
        raise ValueError(f"--snapshots steps must be >= 0, got {steps[0]}")
    return steps


def cmd_simulate(args):
    out_dir = Path(args.out_dir)
    inputs = []
    outputs = []
    snapshots = _parse_snapshots(args.snapshots) if args.snapshots else []
    if args.gen is not None:
        ratio = args.gen_ratio if args.gen == "stratified" else 1.0
        top = args.gen_top if args.gen == "stratified" else args.gen_uniform_top
        sys_obj = sine_map_system(n=args.gen_n, top=top, ratio=ratio,
                                  alpha=args.gen_alpha, b_scale=args.gen_b_scale,
                                  seed=subseed(args.seed, _STREAM_GEN))
        system_path = out_dir / "system.json"
        save_system(sys_obj, system_path)
        outputs.append(system_path)
    elif args.system is not None:
        system_path = Path(args.system)
        sys_obj = load_system(system_path)
        inputs.append(system_path)
    else:
        raise ValueError("either a system file or --gen is required")

    if args.x0 is not None:
        x0 = _parse_x0(args.x0, sys_obj.n)
    else:
        rng = np.random.default_rng(subseed(args.seed, _STREAM_X0))
        x0 = rng.uniform(-0.5, 0.5, size=sys_obj.n)

    if sys_obj.form.value == "discrete_map":
        if args.steps is None:
            raise ValueError("--steps is required for discrete_map systems")
        traj = iterate_map(sys_obj, x0, args.steps)
    else:
        if args.t_end is None or args.dt is None:
            raise ValueError("--t-end and --dt are required for continuous systems")
        traj = integrate_rk4(sys_obj, x0, args.t_end, args.dt)
    # checked before the trajectory outputs are written, so none is left partial
    if snapshots and snapshots[-1] >= traj.states.shape[0]:
        raise ValueError(f"snapshot step {snapshots[-1]} outside trajectory "
                         f"(last step {traj.states.shape[0] - 1})")
    report = slow_fast_report(traj, theta=args.theta, eps_conv=args.eps_conv)

    traj_path = out_dir / "trajectory.csv"
    trajectory_to_csv(traj, traj_path)
    outputs.append(traj_path)

    report_path = out_dir / "slowfast.json"
    write_json(report_path, slow_fast_to_dict(report))
    outputs.append(report_path)
    print(f"steps={traj.states.shape[0] - 1} collapse_step={report.collapse_step} "
          f"terminal_drift={report.terminal_drift:.6g} converged={report.converged}")

    if snapshots:
        snap_path = out_dir / "snapshots.csv"
        with open(snap_path, "w", newline="") as fh:
            fh.write(",".join(["step", "t"] + [f"x_{j + 1}" for j in range(sys_obj.n)])
                     + "\r\n")
            write_csv_rows(fh, snapshots, [traj.times[snapshots], traj.states[snapshots]])
        outputs.append(snap_path)
    return inputs, outputs


def cmd_probe(args):
    out_dir = Path(args.out_dir)
    inputs = []
    if args.mnist is not None:
        images_path, labels_path = (Path(p) for p in args.mnist)
        data = load_idx(images_path, labels_path, max_items=args.max)
        inputs += [images_path, labels_path]
        held_out = natural = None
        if args.holdout_digit is not None:
            data, held = exclude_label(data, args.holdout_digit)
            held_out = held.inputs
            natural_digit = (args.holdout_digit + 9) % 10
            if np.any(data.labels == natural_digit):
                data, nat = exclude_label(data, natural_digit)
                natural = nat.inputs
        train_data = data
    else:
        # two extra clusters serve as unseen-class and natural-noise probes;
        # only the first `classes` labels get logit slots
        blobs = synth_blobs(args.classes + 2, args.dim, args.per_class,
                            args.separation, seed=subseed(args.seed, _STREAM_DATA))
        keep = blobs.labels < args.classes
        train_data = Dataset(inputs=blobs.inputs[keep], labels=blobs.labels[keep],
                             n_classes=args.classes)
        held_out = blobs.inputs[blobs.labels == args.classes]
        natural = blobs.inputs[blobs.labels == args.classes + 1]

    n_classes = train_data.n_classes
    net = TinyNet.init([train_data.dim, 128, 64, n_classes],
                       seed=subseed(args.seed, _STREAM_TRAIN))
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      epochs=args.epochs, seed=subseed(args.seed, _STREAM_TRAIN))
    probes = make_probe_samples(train_data, n_per_category=args.probes_per_category,
                                seed=subseed(args.seed, _STREAM_PROBES),
                                held_out=held_out, natural=natural)
    trained, trace = train(net, train_data, cfg, probes=probes)
    acc = accuracy(trained, train_data)
    print(f"trained on {train_data.size} samples, {cfg.epochs} epochs, "
          f"train accuracy {acc:.3f}")

    trace_path = out_dir / "cvtrace.csv"
    trace.to_csv(trace_path)

    groups = {TRAIN_CLASS: np.array([p.x for p in probes if p.category == TRAIN_CLASS]),
              RANDOM_NOISE: np.array([p.x for p in probes if p.category == RANDOM_NOISE])}
    if held_out is not None:
        groups[HELD_OUT_CLASS] = held_out
    if natural is not None:
        groups[NATURAL_NOISE] = natural
    stats = stratification_study(trained, groups, samples_per_group=args.samples_per_group)
    strat_path = out_dir / "stratification.csv"
    write_group_stats_csv(stats, strat_path)
    samples_path = out_dir / "stratification_samples.csv"
    write_group_samples_csv(stats, samples_path)
    model_path = out_dir / "model.json"
    save_net(trained, model_path)
    for s in stats:
        print(f"  {s.group}: mean cv {s.mean_cv:.4f}, median cv {s.median_cv:.4f}")
    return inputs, [trace_path, strat_path, samples_path, model_path]


def _load_matrix(path: Path) -> np.ndarray:
    if path.suffix == ".json":
        d = json.loads(path.read_text())
        if not isinstance(d, dict) or "W" not in d:
            raise ValueError(f"{path}: no 'W' matrix in system file")
        return _json_numbers("W", d["W"])
    return np.atleast_2d(np.loadtxt(path, delimiter=","))


def cmd_svd_report(args):
    matrix_path = Path(args.matrix)
    M = _load_matrix(matrix_path)
    report = svd_spectrum(M, rel_tol=args.rank_tol)
    out_dir = Path(args.out_dir)
    out_path = out_dir / "spectrum.json"
    write_json(out_path, spectrum_to_dict(report))
    print(f"{M.shape[0]}x{M.shape[1]} matrix: rank {report.numerical_rank} "
          f"(tol {report.tol_used:g}), cv {report.cv:.6g}, "
          f"max gap ratio {report.max_gap_ratio:.6g}")
    print("singular values:", ", ".join(f"{v:.6g}" for v in report.singular_values))
    return [matrix_path], [out_path]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")
    # only the subcommands that measure a numerical rank take a tolerance
    rank_tol = argparse.ArgumentParser(add_help=False)
    rank_tol.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)

    parser = argparse.ArgumentParser(prog="attrakit",
                                     description="continuous-attractor analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", parents=[common],
                       help="generate a relu system with a known attractor")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--c-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", parents=[common, rank_tol],
                       help="find equilibria and their attractor dimensions")
    p.add_argument("system")
    p.add_argument("--box", type=float, nargs=2, default=(-3.0, 3.0),
                   metavar=("LO", "HI"))
    p.add_argument("--starts", type=int, default=32)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", parents=[common],
                       help="integrate a trajectory and report slow-fast diagnostics")
    p.add_argument("system", nargs="?")
    p.add_argument("--gen", choices=("stratified", "uniform"),
                   help="generate a sine-map system instead of reading one")
    p.add_argument("--gen-n", type=int, default=3)
    p.add_argument("--gen-ratio", type=float, default=100.0)
    p.add_argument("--gen-top", type=float, default=1.0)
    p.add_argument("--gen-uniform-top", type=float, default=0.3)
    p.add_argument("--gen-alpha", type=float, default=0.05)
    p.add_argument("--gen-b-scale", type=float, default=0.005)
    p.add_argument("--steps", type=int)
    p.add_argument("--t-end", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--x0", help="comma-separated initial state")
    p.add_argument("--snapshots", help="comma-separated steps to extract")
    p.add_argument("--theta", type=float, default=0.01)
    p.add_argument("--eps-conv", type=float, default=1e-9)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("probe", parents=[common],
                       help="train the classifier probe and track Jacobian spectra")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--synthetic", action="store_true")
    source.add_argument("--mnist", nargs=2, metavar=("IMAGES", "LABELS"))
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--dim", type=int, default=12)
    p.add_argument("--per-class", type=_count, default=1000)
    p.add_argument("--separation", type=float, default=6.0)
    p.add_argument("--max", type=_count, default=None)
    p.add_argument("--holdout-digit", type=int, default=None)
    p.add_argument("--epochs", type=_count, default=5)
    p.add_argument("--lr", type=float, default=0.02)
    p.add_argument("--batch-size", type=_count, default=32)
    p.add_argument("--probes-per-category", type=_count, default=48)
    p.add_argument("--samples-per-group", type=_count, default=50)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("svd-report", parents=[common, rank_tol],
                       help="spectrum report of a matrix file (CSV or system JSON)")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_svd_report)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        inputs, outputs = args.func(args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence: {exc}; last state {exc.last_state.tolist()}",
              file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_manifest(out_dir, argv, args.seed, inputs, outputs,
                    time.monotonic() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
