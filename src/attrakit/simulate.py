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
import math
from dataclasses import dataclass

import numpy as np

from . import _forked
from .dynsys import (
    Activation,
    DynamicalSystem,
    SystemForm,
    _check_state,
    bound_field,
    open_replacing,
)

__all__ = [
    "Trajectory",
    "SlowFastReport",
    "DivergenceError",
    "iterate_map",
    "integrate_rk4",
    "slow_fast_report",
    "sine_map_system",
    "CsvRows",
    "TrajectoryCsv",
    "trajectory_to_csv",
    "trajectory_from_csv",
    "write_csv_rows",
    "slow_fast_to_dict",
]

DIVERGENCE_NORM = 1e12

# rows per block of the stepping checks, the displacement norms and the CSV
# writer: enough to amortise each numpy or write call, few enough that a
# block's temporaries (and its Python floats in the writer) stay a small
# share of memory
_BLOCK_ROWS = 256


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


def _norm(v: np.ndarray) -> float:
    # what np.linalg.norm computes for a 1-D float vector, without its dispatch
    return math.sqrt(v.dot(v))


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # _norm of each row, bit for bit (np.linalg.norm(axis=1) is not)
    return np.sqrt(np.vecdot(rows, rows))


def _check_block(states: np.ndarray, lo: int, hi: int) -> None:
    """Raise DivergenceError at the first bad state of the steps lo+1..hi.

    A state is bad when its norm is above DIVERGENCE_NORM or not finite;
    the error names its step and carries the state before it.
    """
    bad = ~(_row_norms(states[lo + 1:hi + 1]) <= DIVERGENCE_NORM)  # NaN is bad too
    if bad.any():
        t = lo + int(bad.argmax())
        raise DivergenceError(t + 1, states[t].copy())


def iterate_map(sys: DynamicalSystem, x0, steps: int, on_block=None) -> Trajectory:
    """Iterate a discrete map, recording every state and step speed.

    Divergence is checked once per block of _BLOCK_ROWS steps, so a
    diverging map stops within one block; the DivergenceError still names
    the first bad step and the state before it. on_block(traj, done), when
    given, is called after each block has passed that check, with the
    Trajectory being filled (the one returned) and the steps done so far:
    traj.states[:done + 1] and traj.speeds[:done] are final.
    """
    if sys.form is not SystemForm.discrete_map:
        raise ValueError("iterate_map needs a discrete_map system")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    field = bound_field(sys)
    states = np.empty((steps + 1, sys.n))
    speeds = np.empty(steps)
    states[0] = _check_state(sys, x0)
    traj = _filled_by(states, np.arange(steps + 1, dtype=float), speeds, "discrete")
    x = states[0]
    # steps past a divergence overflow or turn NaN until the block's check
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, steps, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, steps)
            for t in range(lo, hi):
                states[t + 1] = x = field(x)
            _check_block(states, lo, hi)
            speeds[lo:hi] = _row_norms(states[lo + 1:hi + 1] - states[lo:hi])
            if on_block is not None:
                on_block(traj, hi)
    return traj


def _filled_by(states, times, speeds, kind) -> Trajectory:
    # the Trajectory is made before the stepping loop fills states and
    # speeds, over read-only views of them, so on_block can be handed the
    # object that is returned in the end
    return Trajectory(states=states.view(), times=times, speeds=speeds.view(), kind=kind)


def _rk4_steps(t_end: float, h: float) -> int:
    """Number of RK4 steps integrate_rk4 takes from 0 to t_end with step about h."""
    ratio = t_end / h
    if ratio == math.inf:
        raise ValueError("more steps than can be counted")
    return max(1, int(round(ratio)))


def integrate_rk4(sys: DynamicalSystem, x0, t_end: float, h: float,
                  on_block=None) -> Trajectory:
    """Classical fixed-step RK4 from 0 to t_end.

    The step is snapped to t_end / round(t_end / h) so the final time is hit
    exactly; halving h quarters the local error twice over (order 4). Each
    state's speed is the norm of its first stage, the field at that state.
    Divergence is checked per block of steps, and on_block is called after
    each checked block, as in iterate_map.
    """
    if sys.form is SystemForm.discrete_map:
        raise ValueError("integrate_rk4 needs a continuous-form system")
    if h <= 0 or t_end <= 0:
        raise ValueError("t_end and h must be positive")
    n_steps = _rk4_steps(t_end, h)
    dt = t_end / n_steps
    half, sixth = 0.5 * dt, dt / 6.0
    field = bound_field(sys)
    states = np.empty((n_steps + 1, sys.n))
    speeds = np.empty(n_steps + 1)
    states[0] = _check_state(sys, x0)
    traj = _filled_by(states, dt * np.arange(n_steps + 1), speeds, "continuous")
    x = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, _BLOCK_ROWS):
            hi = min(lo + _BLOCK_ROWS, n_steps)
            for t in range(lo, hi):
                k1 = field(x)
                speeds[t] = _norm(k1)
                k2 = field(x + half * k1)
                k3 = field(x + half * k2)
                k4 = field(x + dt * k3)
                states[t + 1] = x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            _check_block(states, lo, hi)
            if on_block is not None:
                on_block(traj, hi)
    speeds[n_steps] = _norm(field(x))
    return traj


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
    speeds, states = traj.speeds, traj.states
    if speeds[0] == 0.0:
        collapse = 0
    else:
        below = speeds < theta * speeds[0]
        collapse = int(below.argmax()) if below.any() else speeds.shape[0]
    # the row norms of np.diff(states), a block at a time so no (S-1, n)
    # temporary is built; np.linalg.norm, not _row_norms, keeps the drift's
    # last bits what they have always been
    displacements = np.empty(states.shape[0] - 1)
    for lo in range(0, displacements.shape[0], _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, displacements.shape[0])
        displacements[lo:hi] = np.linalg.norm(states[lo + 1:hi + 1] - states[lo:hi], axis=1)
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


class CsvRows:
    """A head, then `step,v_1,...,v_k` CRLF rows, formatted as bytes.

    steps (integers, a range too) gives each row's first cell; the values
    come from the aligned 1-D or 2-D arrays in columns, printed with
    `%.17g` (a bit-exact round trip) a block of _BLOCK_ROWS rows at a time.

    ready(count) says the first count rows are final, while the columns
    may still be being filled. Its first call forks one formatter (a fed
    _forked.Child, its part in part_dir), and each call sends it the newly
    final rows' float64 cells through a pipe. write(path) copies the
    formatter's part after the head and then formats the rows not sent, or
    every row if the formatter failed or was not forked, so the bytes are
    those of one process. close() reaps the formatter.
    """

    def __init__(self, head: bytes, steps, columns, part_dir=None):
        width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
        self._fmt = b"%d" + b",%.17g" * width + b"\r\n"
        self._cells = 1 + width
        self._head, self._steps, self._columns = head, steps, columns
        self._part_dir = part_dir
        self._formatter = None
        self._sent = 0  # rows before this one went to the formatter

    def close(self) -> None:
        if self._formatter is not None:
            self._formatter.close()

    def _blocks(self, lo: int, hi: int):
        # float64 throughout: `%d` prints the float step cell as its integer
        for a in range(lo, hi, _BLOCK_ROWS):
            b = min(a + _BLOCK_ROWS, hi)
            yield np.column_stack([self._steps[a:b]] + [c[a:b] for c in self._columns])

    def _format(self, block: np.ndarray, out) -> None:
        out.write((self._fmt * block.shape[0]) % tuple(block.ravel().tolist()))

    def _format_sent(self, src, out) -> None:
        # the formatter's work: the sent rows a block at a time, to the pipe's end
        while data := src.read(_BLOCK_ROWS * self._cells * 8):
            self._format(np.frombuffer(data).reshape(-1, self._cells), out)

    def ready(self, count: int) -> None:
        """The first count rows are final: send those not yet sent to the formatter."""
        if self._formatter is None:
            self._formatter = _forked.Child(self._format_sent, self._part_dir, fed=True)
        # a formatter not forked, or gone, has no feed, and its join fails
        if self._formatter.feed is None:
            return
        for block in self._blocks(self._sent, count):
            if not self._formatter.send(block):
                return
        self._sent = count

    def write(self, path) -> None:
        """Write the head and every row to a new file at path; an error leaves none."""
        with open_replacing(path, "wb") as fh:
            fh.write(self._head)
            joined = self._formatter is not None and self._formatter.join(fh)
            for block in self._blocks(self._sent if joined else 0, len(self._steps)):
                self._format(block, fh)


def write_csv_rows(path, head: bytes, steps, columns) -> None:
    """Write head, then `step,v_1,...,v_k` CRLF rows, to a new file at path (see CsvRows)."""
    CsvRows(head, steps, columns).write(path)


def _trajectory_rows(traj: Trajectory, part_dir=None) -> CsvRows:
    n = traj.states.shape[1]
    header = ["step", "t"] + [f"x_{j + 1}" for j in range(n)] + ["speed"]
    head = (",".join(header) + "\r\n").encode()
    steps, times, states = range(traj.states.shape[0]), traj.times, traj.states
    if traj.kind == "discrete":
        # the first state has no arriving step, so its speed cell is empty
        head += (b"0" + b",%.17g" * (n + 1) + b",\r\n") % (times[0], *states[0].tolist())
        steps, times, states = steps[1:], times[1:], states[1:]
    return CsvRows(head, steps, [times, states, traj.speeds], part_dir)


class TrajectoryCsv:
    """The rows of a trajectory's CSV, fed to a formatter while the trajectory is stepped.

    Give on_block as the on_block of iterate_map or integrate_rk4, so the
    rows that pass the divergence check go to CsvRows.ready; then give this
    object to trajectory_to_csv with the finished trajectory. Leaving the
    with block reaps the formatter, so a run that diverges leaves nothing.
    """

    def __init__(self, part_dir=None):
        self._part_dir = part_dir
        self._rows = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._rows is not None:
            self._rows.close()

    def rows(self, traj: Trajectory) -> CsvRows:
        if self._rows is None:
            self._rows = _trajectory_rows(traj, self._part_dir)
        return self._rows

    def on_block(self, traj: Trajectory, done: int) -> None:
        # CSV row t holds speed t, and state t + 1 of a discrete trajectory
        # or state t of a continuous one: either way the first done are final
        self.rows(traj).ready(done)


def trajectory_to_csv(traj: Trajectory, path, stepped: TrajectoryCsv | None = None) -> None:
    """Write `step,t,x_1,...,x_n,speed` CRLF rows with 17 significant digits.

    For discrete trajectories the speed column holds the displacement of
    the step arriving at the row's state; the first row's cell is empty.
    stepped is the TrajectoryCsv that traj's rows were fed to while it was
    stepped, if any (its with block is the caller's); else no process forks.
    """
    (_trajectory_rows(traj) if stepped is None else stepped.rows(traj)).write(path)


def trajectory_from_csv(path) -> Trajectory:
    """Read a trajectory written by trajectory_to_csv.

    Raises ValueError naming the line when the file has no data rows, when
    a row's cell count differs from the header's, or when a cell is not a
    number (only a discrete trajectory's first speed cell may be empty).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader]
    if not rows:
        raise ValueError(f"{path}: line 1: no header")
    header = rows[0][1]
    if len(header) < 4:
        raise ValueError(f"{path}: line 1: header has {len(header)} cells, "
                         "expected step,t,x_1,...,x_n,speed")
    if len(rows) == 1:
        raise ValueError(f"{path}: line 2: no data rows after the header")
    n = len(header) - 3
    discrete = rows[1][1][-1:] == [""]
    times, states, speeds = [], [], []
    for i, (line, row) in enumerate(rows[1:]):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: {len(row)} cells, "
                             f"the header has {len(header)}")
        try:
            times.append(float(row[1]))
            states.append([float(v) for v in row[2:2 + n]])
            if not (discrete and i == 0):
                speeds.append(float(row[-1]))
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
    return Trajectory(states=np.array(states), times=np.array(times),
                      speeds=np.array(speeds),
                      kind="discrete" if discrete else "continuous")


def slow_fast_to_dict(report: SlowFastReport) -> dict:
    return {
        "collapse_step": report.collapse_step,
        "collapse_speed": report.collapse_speed,
        "terminal_drift": report.terminal_drift,
        "endpoint": report.endpoint.tolist(),
        "converged": report.converged,
    }
