"""Traced in-process replay of the recipes, for the per-layer metrics.

Every traced run replays all three workload recipes, so every per-layer
metric is measured on the workload it belongs to whatever --workload is;
--workload only picks the recipe that is replayed first. Each recipe is
replayed twice through `attrakit.cli.main` with the end-to-end arguments:
once untraced, which also warms the process, and once traced.

While traced, the public functions the CLI calls are replaced, in the
namespace they are called from, by wrappers that record spans (name,
layer, start, end, parent), kept in memory until the replay ends. The
kernels that run once per step, iteration or sample (`eval_field`,
`jacobian_analytic`, `svd_spectrum`) are timed in aggregate and charged
to the span that called them, not given spans of their own. A function
that a later refactor removes is simply not wrapped, and the metrics
that need it are reported absent.

Layers are the modules: cli, construct, equilibria, dynsys, spectral,
simulate and probe. A layer's self time is the time its spans cover less
the time of their child spans and kernels. Per-call kernel timings come
from separate median-of-blocks loops over the systems the recipes used.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import workloads

# public functions the CLI calls, with the layer (module) that owns them
SPAN_FUNCS = {
    "construct_relu_attractor": "construct",
    "verify_construction": "construct",
    "find_equilibria": "equilibria",
    "iterate_map": "simulate",
    "integrate_rk4": "simulate",
    "slow_fast_report": "simulate",
    "trajectory_to_csv": "simulate",
    "train": "probe",
    "stratification_study": "probe",
}
# per-step kernels, with the layer whose module (attrakit.<layer>) defines them
KERNELS = {"eval_field": "dynsys", "jacobian_analytic": "dynsys", "svd_spectrum": "spectral"}

# the layers each recipe runs through, for the self-time metrics
RECIPE_LAYERS = {
    "attractor": ("cli", "construct", "equilibria", "dynsys", "spectral"),
    "trajectory": ("cli", "simulate", "dynsys"),
    "probe": ("cli", "probe"),
}

# (name, unit, better, the end-to-end metric and workload it should move)
_SETUP = "setup_s on trajectory and probe, and on attractor's construct invocation"
_ATTRACTOR_CMD = "cmd_s on attractor"
_ATTRACTOR_QUALITY = "on_set_yield and dim_match_frac on attractor"
_TRAJECTORY_CMD = "cmd_s on trajectory"
_PROBE_CMD = "cmd_s on probe"
LAYER_METRICS = [
    ("cli.import_s", "s", "lower", _SETUP),
    ("cli.import_scipy_stats_s", "s", "lower", _SETUP),
    ("construct.build_s", "s", "lower", _ATTRACTOR_CMD),
    ("construct.verify_s", "s", "lower", _ATTRACTOR_CMD),
    ("equilibria.find_s", "s", "lower", "cmd_s and wall_s on attractor"),
    ("equilibria.ms_per_start", "ms", "lower", "cmd_s and wall_s on attractor"),
    ("equilibria.kept", "count", "higher", _ATTRACTOR_QUALITY),
    ("equilibria.yield", "fraction", "higher", _ATTRACTOR_QUALITY),
    ("equilibria.pinv_kept_frac", "fraction", "lower", _ATTRACTOR_QUALITY),
    ("dynsys.eval_field_us.n3", "us", "lower", _TRAJECTORY_CMD),
    ("dynsys.eval_field_us.n40", "us", "lower", _TRAJECTORY_CMD),
    ("dynsys.jacobian_analytic_us.n40", "us", "lower", _ATTRACTOR_CMD),
    ("spectral.svd_spectrum_us.n40", "us", "lower", _ATTRACTOR_CMD),
    ("simulate.iterate_map_us_per_step", "us", "lower", _TRAJECTORY_CMD),
    ("simulate.rk4_us_per_step", "us", "lower", _TRAJECTORY_CMD),
    ("simulate.slow_fast_report_s", "s", "lower", _TRAJECTORY_CMD),
    ("simulate.csv_write_s", "s", "lower", _TRAJECTORY_CMD),
    ("simulate.csv_mb", "MB", "lower", _TRAJECTORY_CMD),
    ("probe.train_s", "s", "lower", _PROBE_CMD),
    ("probe.record_s", "s", "lower", _PROBE_CMD),
    ("probe.sgd_batch_us", "us", "lower", _PROBE_CMD),
    ("probe.records", "count", "higher", _PROBE_CMD),
    ("probe.spectrum_us_per_sample", "us", "lower", _PROBE_CMD),
    ("probe.stratification_s", "s", "lower", _PROBE_CMD),
]
for _w, _layers in RECIPE_LAYERS.items():
    LAYER_METRICS += [(f"trace.{_w}.self_s.{layer}", "s", "lower", f"cmd_s on {_w}")
                      for layer in _layers]
    LAYER_METRICS += [
        (f"trace.{_w}.coverage", "fraction", "higher",
         f"none: share of {_w}'s cmd_s in layer spans"),
        (f"trace.{_w}.overhead_s", "s", "lower",
         f"none: traced minus untraced cmd_s on {_w}"),
    ]
UNITS = {name: unit for name, unit, _, _ in LAYER_METRICS}

IMPORT_REPEATS = 3


@dataclass
class Span:
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    kernel_s: float = 0.0
    fn: object = None
    args: dict = field(default_factory=dict)
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and kernel totals of one traced replay, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernel_calls: dict[str, int] = {}
        self.kernel_layer_s: dict[str, float] = {}
        self._stack: list[int] = []

    def span(self, name: str, layer: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = Span(name, layer, self._stack[-1] if self._stack else None,
                        time.perf_counter(), fn=fn)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                span.result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.args = bound.arguments
            return span.result

        return traced

    def kernel(self, name: str, layer: str, fn):
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                if self._stack:
                    self.spans[self._stack[-1]].kernel_s += elapsed
                self.kernel_calls[name] = self.kernel_calls.get(name, 0) + 1
                self.kernel_layer_s[layer] = self.kernel_layer_s.get(layer, 0.0) + elapsed

        return timed

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_s[s.parent] += s.duration
        out = dict(self.kernel_layer_s)
        for s, children in zip(self.spans, child_s):
            out[s.layer] = out.get(s.layer, 0.0) + s.duration - children - s.kernel_s
        return out

    def top_level_s(self) -> float:
        """Time in layer spans directly under the CLI's root spans."""
        roots = {i for i, s in enumerate(self.spans) if s.parent is None}
        return sum(s.duration for s in self.spans if s.parent in roots)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Swap in tracing wrappers; the originals are back when the block exits."""
    cli = sys.modules["attrakit.cli"]
    patches = []
    for name, layer in SPAN_FUNCS.items():
        fn = getattr(cli, name, None)
        if callable(fn):
            patches.append((cli, name, fn, tracer.span(name, layer, fn)))
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "attrakit" or n.startswith("attrakit."))]
    for name, layer in KERNELS.items():
        original = getattr(sys.modules.get(f"attrakit.{layer}"), name, None)
        if original is None:
            continue
        wrapped = tracer.kernel(name, layer, original)
        patches += [(m, name, original, wrapped) for m in modules
                    if getattr(m, name, None) is original]
    try:
        for module, name, _, wrapper in patches:
            setattr(module, name, wrapper)
        yield
    finally:
        for module, name, original, _ in patches:
            setattr(module, name, original)


def import_times(env: dict[str, str]) -> dict[str, float]:
    """Median import time of attrakit.cli and of scipy.stats inside it, from -X importtime.

    The first run is not counted: it may still be writing bytecode caches.
    """
    cli_s, stats_s = [], []
    for _ in range(IMPORT_REPEATS + 1):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import attrakit.cli"],
                              capture_output=True, text=True, env=env, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"importing attrakit.cli failed:\n{done.stderr}")
        cumulative = {}
        for line in done.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                # keep the shallowest entry of each module
                cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        cli_s.append(cumulative.get("attrakit.cli", math.nan))
        stats_s.append(cumulative.get("scipy.stats", 0.0))
    return {"cli.import_s": statistics.median(cli_s[1:]),
            "cli.import_scipy_stats_s": statistics.median(stats_s[1:])}


def per_call_us(fn, calls: list[tuple], blocks: int = 7, block_s: float = 0.02) -> float:
    """Median over blocks of the time per call, cycling through the argument tuples."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        for a in calls:
            fn(*a)
        once = (time.perf_counter() - start) / len(calls)
        reps = max(1, int(block_s / (once * len(calls))))
        samples = []
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(reps):
                for a in calls:
                    fn(*a)
            samples.append((time.perf_counter() - start) / (reps * len(calls)))
    return statistics.median(samples) * 1e6


@dataclass
class Replay:
    """Outcome of running one recipe through cli.main in this process."""

    duration_s: float = 0.0
    hashes: dict[str, str] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def replay(cli, invocations, pass_dir: Path, tracer: Tracer | None) -> Replay:
    out = Replay()
    main = cli.main if tracer is None else tracer.span("main", "cli", cli.main)
    for inv in invocations:
        captured_out, captured_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(captured_out), contextlib.redirect_stderr(captured_err):
            if tracer is None:
                code = main(inv.argv(pass_dir))
            else:
                with instrumented(tracer):
                    code = main(inv.argv(pass_dir))
        out.stdout[inv.label] = captured_out.getvalue()
        if code != 0:
            out.problems.append(f"{inv.label} exited {code}: {captured_err.getvalue()[-300:]}")
            return out
        manifest = json.loads((pass_dir / inv.label / "manifest.json").read_text())
        out.duration_s += manifest["duration_s"]
        out.hashes.update({f"{inv.label}/{n}": h
                           for n, h in workloads.output_hashes(manifest).items()})
    return out


def _measure(metrics: dict, name: str, compute) -> None:
    """Store compute() under name; leave it absent when the spans it needs are missing."""
    try:
        metrics[name] = float(compute())
    except (IndexError, KeyError, AttributeError, TypeError, ValueError, ZeroDivisionError):
        pass


def layer_metrics(workload: str, t: Tracer, kernels: dict) -> dict[str, float]:
    """Per-layer metrics of one traced recipe. Fills `kernels` with systems to time."""
    m: dict[str, float] = {}

    def total(name):
        spans = t.named(name)
        if not spans:
            raise KeyError(name)
        return sum(s.duration for s in spans)

    if workload == "attractor":
        _measure(m, "construct.build_s", lambda: total("construct_relu_attractor"))
        _measure(m, "construct.verify_s", lambda: total("verify_construction"))
        find = t.named("find_equilibria")
        _measure(m, "equilibria.find_s", lambda: total("find_equilibria"))
        _measure(m, "equilibria.ms_per_start",
                 lambda: 1e3 * find[0].duration / find[0].args["n_starts"])
        _measure(m, "equilibria.kept", lambda: len(find[0].result))
        _measure(m, "equilibria.yield",
                 lambda: len(find[0].result) / find[0].args["n_starts"])
        _measure(m, "equilibria.pinv_kept_frac",
                 lambda: np.mean([r.pinv_fallback for r in find[0].result]))
        if find:
            kernels["attractor"] = (find[0].args["sys"], find[0].args["box"])
    elif workload == "trajectory":
        it, rk = t.named("iterate_map"), t.named("integrate_rk4")
        _measure(m, "simulate.iterate_map_us_per_step",
                 lambda: 1e6 * it[0].duration / it[0].args["steps"])
        _measure(m, "simulate.rk4_us_per_step",
                 lambda: 1e6 * rk[0].duration / (rk[0].result.states.shape[0] - 1))
        _measure(m, "simulate.slow_fast_report_s", lambda: total("slow_fast_report"))
        _measure(m, "simulate.csv_write_s", lambda: total("trajectory_to_csv"))
        _measure(m, "simulate.csv_mb", lambda: sum(
            Path(s.args["path"]).stat().st_size for s in t.named("trajectory_to_csv")) / 1e6)
        for key, spans in (("n3", it), ("n40", rk)):
            if spans:
                kernels[key] = (spans[0].args["sys"], spans[0].result.states)
    elif workload == "probe":
        tr, st = t.named("train"), t.named("stratification_study")
        _measure(m, "probe.train_s", lambda: total("train"))
        _measure(m, "probe.records", lambda: len(tr[0].result[1].records))
        bare: dict[str, float] = {}
        _measure(bare, "train_s", lambda: _train_without_probes_s(tr[0]))
        if bare:
            m["probe.record_s"] = tr[0].duration - bare["train_s"]
            _measure(m, "probe.sgd_batch_us", lambda: 1e6 * bare["train_s"] / (
                math.ceil(tr[0].args["data"].size / tr[0].args["cfg"].batch_size)
                * tr[0].args["cfg"].epochs))
        _measure(m, "probe.stratification_s", lambda: total("stratification_study"))
        _measure(m, "probe.spectrum_us_per_sample", lambda: 1e6 * st[0].duration / sum(
            min(len(g), st[0].args["samples_per_group"]) for g in st[0].args["groups"].values()))

    selfs = t.self_times()
    for layer in RECIPE_LAYERS[workload]:
        m[f"trace.{workload}.self_s.{layer}"] = selfs.get(layer, 0.0)
    return m


def _train_without_probes_s(span: Span) -> float:
    """Time of the traced `train` call repeated without probes."""
    args = span.args
    start = time.perf_counter()
    span.fn(args["net"], args["data"], args["cfg"])
    return time.perf_counter() - start


def kernel_metrics(kernels: dict, seed: int) -> dict[str, float]:
    """Per-call timings of the per-step kernels on the systems the recipes used."""
    dynsys = sys.modules["attrakit.dynsys"]
    m: dict[str, float] = {}
    for key in ("n3", "n40"):
        if key in kernels and hasattr(dynsys, "eval_field"):
            system, states = kernels[key]
            rows = states[:: max(1, len(states) // 64)][:64]
            _measure(m, f"dynsys.eval_field_us.{key}",
                     lambda: per_call_us(dynsys.eval_field, [(system, x) for x in rows]))
    if "attractor" in kernels:
        system, box = kernels["attractor"]
        lo, hi = box
        points = np.random.default_rng(seed).uniform(lo, hi, size=(64, system.n))
        if hasattr(dynsys, "jacobian_analytic"):
            _measure(m, "dynsys.jacobian_analytic_us.n40", lambda: per_call_us(
                dynsys.jacobian_analytic, [(system, x) for x in points]))
            spectral = sys.modules.get("attrakit.spectral")
            if hasattr(spectral, "svd_spectrum"):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    jacobians = [dynsys.jacobian_analytic(system, x) for x in points[:16]]
                _measure(m, "spectral.svd_spectrum_us.n40", lambda: per_call_us(
                    spectral.svd_spectrum, [(J,) for J in jacobians]))
    return m


def run_traced(workload: str, size: str, seed: int, seconds: float, work: Path,
               src: Path, env: dict[str, str]):
    """Traced replay of all recipes; returns (metrics, attempted, failed, report lines)."""
    sys.path.insert(0, str(src))
    cli = importlib.import_module("attrakit.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: attrakit imported from {cli.__file__}, not {src}")

    start = time.perf_counter()
    imports = import_times(env)
    input_dir = work / "input"
    order = [workload] + [w for w in workloads.NAMES if w != workload]
    for w in order:
        make_input = workloads.input_invocation(w, size, seed)
        if make_input is not None:
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(make_input.args + ["--out-dir", str(input_dir)]) != 0:
                    raise SystemExit(f"perfbench: making the {w} input failed")

    rounds: list[dict[str, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    kernels: dict = {}
    calls: dict[str, dict[str, int]] = {}
    round_s: list[float] = []
    # a round is long, so start one only if it should end within the time
    while not rounds or time.perf_counter() - start + statistics.median(round_s) <= seconds:
        lap = time.perf_counter()
        found: dict[str, float] = {}
        for w in order:
            attempted += 1
            pass_dir = work / f"round{len(rounds)}-{w}"
            flags_seed = workloads.pass_seed(w, seed, len(rounds))
            invocations = workloads.recipe(w, size, flags_seed, pass_dir / "plain", input_dir)
            plain = replay(cli, invocations, pass_dir / "plain", None)
            tracer = Tracer()
            invocations = workloads.recipe(w, size, flags_seed, pass_dir / "traced", input_dir)
            traced = replay(cli, invocations, pass_dir / "traced", tracer)
            trouble = plain.problems + traced.problems
            if not trouble and traced.hashes != plain.hashes:
                trouble.append("traced outputs differ from untraced outputs")
            if not trouble:
                try:
                    trouble += workloads.check_pass(w, size, pass_dir / "traced",
                                                    traced.stdout)[0]
                except (OSError, KeyError, ValueError) as exc:
                    trouble.append(f"missing or malformed output ({exc})")
            if trouble:
                failed += 1
                problems += [f"{w}: {p}" for p in trouble]
                continue
            found.update(layer_metrics(w, tracer, kernels))
            found[f"trace.{w}.coverage"] = tracer.top_level_s() / traced.duration_s
            found[f"trace.{w}.overhead_s"] = traced.duration_s - plain.duration_s
            calls[w] = dict(tracer.kernel_calls)
            shutil.rmtree(pass_dir)
        rounds.append(found)
        round_s.append(time.perf_counter() - lap)

    values = dict(imports)
    for name in UNITS:
        samples = [r[name] for r in rounds if name in r]
        if samples:
            values[name] = statistics.median(samples)
    values.update(kernel_metrics(kernels, seed))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in UNITS.items() if name in values}

    lines = [f"traced replay of {', '.join(order)}, seed {seed}: {len(rounds)} round(s)"]
    for name, unit, _, moves in LAYER_METRICS:
        shown = f"{values[name]:.6g} {unit}" if name in values else "absent"
        lines.append(f"  {name:<36} {shown:<20} moves {moves}")
    lines += [f"  {w} kernel calls: "
              + (", ".join(f"{k} {n}" for k, n in sorted(c.items())) or "none")
              for w, c in calls.items()]
    lines += [f"  failed: {p}" for p in problems]
    return metrics, attempted, failed, lines
