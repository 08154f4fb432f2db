"""Trajectory integration and slow-fast diagnostics.

Discrete maps iterate eval_field as the step map; continuous forms use
classical fixed-step RK4. The slow-fast report quantifies the pattern of a
fast collapse onto a low-dimensional surface followed by slow travel along
it: speeds drop below a fraction of the initial speed early (collapse), yet
the remaining distance traveled stays large relative to the step size at
collapse.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .dynsys import Activation, DynamicalSystem, SystemForm, eval_field

__all__ = [
    "Trajectory",
    "SlowFastReport",
    "DivergenceError",
    "iterate_map",
    "integrate_rk4",
    "slow_fast_report",
    "sine_map_system",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "slow_fast_to_dict",
]

DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """The trajectory left the admissible region (norm above 1e12 or non-finite)."""

    def __init__(self, step: int, last_state: np.ndarray):
        self.step = step
        self.last_state = last_state
        super().__init__(
            f"state norm exceeded {DIVERGENCE_NORM:g} or became non-finite at step {step}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded states with times and per-step speeds.

    kind is "discrete" (speeds are step displacements, one fewer than
    states) or "continuous" (speeds are field norms at each state).
    """

    states: np.ndarray  # (S, n)
    times: np.ndarray   # (S,)
    speeds: np.ndarray  # (S-1,) discrete, (S,) continuous
    kind: str

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=float))
        times = np.asarray(self.times, dtype=float)
        speeds = np.asarray(self.speeds, dtype=float)
        if self.kind not in ("discrete", "continuous"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        expected = states.shape[0] - 1 if self.kind == "discrete" else states.shape[0]
        if speeds.shape != (expected,):
            raise ValueError(
                f"speeds have shape {speeds.shape}, expected ({expected},)")
        if times.shape != (states.shape[0],):
            raise ValueError("times length must match states")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        for arr in (states, times, speeds):
            arr.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "speeds", speeds)


@dataclass(frozen=True)
class SlowFastReport:
    collapse_step: int
    collapse_speed: float
    terminal_drift: float
    endpoint: np.ndarray
    converged: bool


def iterate_map(sys: DynamicalSystem, x0, steps: int) -> Trajectory:
    """Iterate a discrete map, recording every state and step speed."""
    if sys.form is not SystemForm.discrete_map:
        raise ValueError("iterate_map needs a discrete_map system")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x0, dtype=float)
    states = np.empty((steps + 1, sys.n))
    speeds = np.empty(steps)
    states[0] = x
    for t in range(steps):
        x_next = eval_field(sys, states[t])
        if not float(np.linalg.norm(x_next)) <= DIVERGENCE_NORM:  # NaN fails too
            raise DivergenceError(t + 1, states[t].copy())
        speeds[t] = np.linalg.norm(x_next - states[t])
        states[t + 1] = x_next
    return Trajectory(states=states, times=np.arange(steps + 1, dtype=float),
                      speeds=speeds, kind="discrete")


def integrate_rk4(sys: DynamicalSystem, x0, t_end: float, h: float) -> Trajectory:
    """Classical fixed-step RK4 from 0 to t_end.

    The step is snapped to t_end / round(t_end / h) so the final time is hit
    exactly; halving h quarters the local error twice over (order 4).
    """
    if sys.form is SystemForm.discrete_map:
        raise ValueError("integrate_rk4 needs a continuous-form system")
    if h <= 0 or t_end <= 0:
        raise ValueError("t_end and h must be positive")
    n_steps = max(1, int(round(t_end / h)))
    dt = t_end / n_steps
    states = np.empty((n_steps + 1, sys.n))
    states[0] = np.asarray(x0, dtype=float)
    for t in range(n_steps):
        x = states[t]
        k1 = eval_field(sys, x)
        k2 = eval_field(sys, x + 0.5 * dt * k1)
        k3 = eval_field(sys, x + 0.5 * dt * k2)
        k4 = eval_field(sys, x + dt * k3)
        x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not float(np.linalg.norm(x_next)) <= DIVERGENCE_NORM:  # NaN fails too
            raise DivergenceError(t + 1, x.copy())
        states[t + 1] = x_next
    speeds = np.array([np.linalg.norm(eval_field(sys, s)) for s in states])
    return Trajectory(states=states, times=dt * np.arange(n_steps + 1),
                      speeds=speeds, kind="continuous")


def slow_fast_report(traj: Trajectory, theta: float = 0.01,
                     eps_conv: float = 1e-9) -> SlowFastReport:
    """Collapse step, post-collapse travel, and convergence verdict.

    collapse_step is the first index whose speed falls below theta times
    the initial speed (0 when the trajectory starts at rest). The drift is
    the summed displacement from the collapse step onward, which for slow
    manifold travel stays much larger than the collapse-step displacement.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if traj.states.shape[0] < 2:
        raise ValueError("need at least two states")
    speeds = traj.speeds
    if speeds[0] == 0.0:
        collapse = 0
    else:
        below = np.nonzero(speeds < theta * speeds[0])[0]
        collapse = int(below[0]) if below.size else speeds.shape[0]
    displacements = np.linalg.norm(np.diff(traj.states, axis=0), axis=1)
    drift = float(displacements[collapse:].sum()) if collapse < displacements.shape[0] else 0.0
    collapse_speed = float(speeds[collapse]) if collapse < speeds.shape[0] else 0.0
    return SlowFastReport(
        collapse_step=collapse,
        collapse_speed=collapse_speed,
        terminal_drift=drift,
        endpoint=traj.states[-1].copy(),
        converged=bool(speeds[-1] < eps_conv),
    )


def sine_map_system(n: int = 3, top: float = 1.0, ratio: float = 100.0,
                    alpha: float = 0.05, b_scale: float = 0.005,
                    seed: int = 0) -> DynamicalSystem:
    """Discrete sin map whose W has eigenvalues log-spaced over a ratio.

    ratio >= 100 produces the stratified regime (fast collapse, slow travel
    along a curve); ratio = 1 with a small top value gives a spectrally
    uniform control that just contracts to its fixed point.
    """
    if n < 1 or top <= 0 or ratio < 1 or alpha < 0:
        raise ValueError("need n >= 1, top > 0, ratio >= 1, alpha >= 0")
    rng = np.random.default_rng(seed)
    s = np.geomspace(top, top / ratio, n)
    G = rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(G)
    W = (Q * s) @ Q.T
    W = 0.5 * (W + W.T)
    b = b_scale * rng.standard_normal(n)
    return DynamicalSystem(n=n, W=W, A=alpha * np.eye(n), b=b,
                           activation=Activation.sine, form=SystemForm.discrete_map)


def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write `step,t,x_1,...,x_n,speed` rows with 17 significant digits.

    For discrete trajectories the speed column holds the displacement of
    the step arriving at the row's state; the first row's cell is empty.
    """
    n = traj.states.shape[1]
    header = ["step", "t"] + [f"x_{j + 1}" for j in range(n)] + ["speed"]

    def fmt(v: float) -> str:
        return f"{v:.17g}"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, (t, x) in enumerate(zip(traj.times, traj.states)):
            if traj.kind == "discrete":
                speed = "" if i == 0 else fmt(traj.speeds[i - 1])
            else:
                speed = fmt(traj.speeds[i])
            writer.writerow([i, fmt(t)] + [fmt(v) for v in x] + [speed])


def trajectory_from_csv(path) -> Trajectory:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n = len(header) - 3
    states = np.array([[float(v) for v in row[2:2 + n]] for row in body])
    times = np.array([float(row[1]) for row in body])
    kind = "discrete" if body[0][-1] == "" else "continuous"
    if kind == "discrete":
        speeds = np.array([float(row[-1]) for row in body[1:]])
    else:
        speeds = np.array([float(row[-1]) for row in body])
    return Trajectory(states=states, times=times, speeds=speeds, kind=kind)


def slow_fast_to_dict(report: SlowFastReport) -> dict:
    return {
        "collapse_step": report.collapse_step,
        "collapse_speed": report.collapse_speed,
        "terminal_drift": report.terminal_drift,
        "endpoint": report.endpoint.tolist(),
        "converged": report.converged,
    }
