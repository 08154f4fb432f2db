"""Equilibrium finding, stability classes, and local attractor dimension.

An equilibrium is a zero of the residual map: the vector field itself for
continuous forms, and eval_field(x) - x (fixed-point condition) for the
discrete map. The attractor dimension at an equilibrium is the state
dimension minus the numerical rank of the residual Jacobian there.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import _forked
from .dynsys import (
    DynamicalSystem,
    SystemForm,
    _check_state,
    _row_norms,
    _warn_on_kink,
    stacked_field,
    stacked_jacobian,
)
from .spectral import (
    DEFAULT_RANK_TOL,
    SpectrumReport,
    spectrum_to_dict,
    svd_spectra,
    svd_spectrum,
)

__all__ = [
    "STABLE",
    "MARGINAL",
    "UNSTABLE",
    "EquilibriumReport",
    "FunctionalDependence",
    "DependenceVerdict",
    "NotAnEquilibriumError",
    "InconsistentWitnessError",
    "residual_vector",
    "residual_jacobian",
    "find_equilibria",
    "attractor_dimension",
    "verify_dependence",
    "dimension_from_dependence",
    "reports_to_json",
]

STABLE = "stable"
MARGINAL = "marginal"
UNSTABLE = "unstable"

DEFAULT_RESIDUAL_TOL = 1e-10

# Levenberg-Marquardt damping and stop rules of _lockstep_lm
_LM_MU_START = 1e-3
_LM_MU_FLOOR = 1e-12
_LM_TRIES = 12
_LM_STALL_STEPS = 5
_LM_STALL_GAIN = 0.1
_LM_MAX_ITER = 100

# why a start stopped, in the per-start table (see _lockstep_lm)
_STOP_TOL, _STOP_TRIES, _STOP_STALL, _STOP_MAX_ITER = range(4)

# starts refined in lockstep by _lockstep_lm, and points per stacked residual
# and spectrum in the reports and in construct.verify_construction. 16 is
# measured: 8 gave less of the gain, and 24 or 32 no more gain for a peak
# RSS up to 0.3 MiB higher (CHANGES.md)
_STACK = 16

_EQUILIBRIUM_RESIDUAL_LIMIT = 1e-8  # attractor_dimension's bound on |F| at its point

# find_equilibria gives each usable CPU a range of at least this many starts.
# Forking and reaping a ~37 MiB process costs 2.3-3.6 ms and one n = 40 start
# takes 0.56-0.71 ms to refine in lockstep (one CPU, CLI seeds 21, 45, 601),
# so a forked range of 8 starts takes 4.5-5.7 ms of refinement off this
# process for under 4 ms of process
_RANGE_MIN_STARTS = 8


class NotAnEquilibriumError(ValueError):
    """The supplied point does not satisfy the equilibrium residual bound."""

    def __init__(self, residual: float, limit: float):
        self.residual = float(residual)
        self.limit = float(limit)
        super().__init__(
            f"residual {residual:.3e} exceeds the equilibrium bound {limit:.3e}")


class InconsistentWitnessError(ValueError):
    """Jacobian rank at the witness disagrees with the declared dependence."""


def _bound_residual(sys: DynamicalSystem):
    """residual_vector and residual_jacobian over a (k, n) stack of states,
    one row per state, with sys bound once and kinks silent."""
    field, jac = stacked_field(sys), stacked_jacobian(sys)
    if sys.form is not SystemForm.discrete_map:
        return field, jac
    eye = np.eye(sys.n)
    return (lambda X: field(X) - X), (lambda X: jac(X) - eye)


def residual_vector(sys: DynamicalSystem, x) -> np.ndarray:
    """F(x) whose zeros are the system's equilibria/fixed points."""
    return _bound_residual(sys)[0](_check_state(sys, x)[None])[0]


def residual_jacobian(sys: DynamicalSystem, x) -> np.ndarray:
    """Jacobian of residual_vector at x, with jacobian_analytic's KinkWarning."""
    X = _check_state(sys, x)[None]
    _warn_on_kink(sys, X)
    return _bound_residual(sys)[1](X)[0]


@dataclass(frozen=True)
class EquilibriumReport:
    point: np.ndarray
    residual: float
    spectrum: SpectrumReport
    attractor_dim: int
    stability: str
    marginal_count: int
    # the Levenberg-Marquardt search has no pseudo-inverse step; always False,
    # kept so equilibria.json and its readers keep their layout
    pinv_fallback: bool = False


@dataclass(frozen=True)
class FunctionalDependence:
    """A declared linear relation sum_i c_i f_i == 0 among component maps.

    independent_count is the declared size of a maximal linearly independent
    subset of the components; it must be smaller than the system dimension.
    """

    coefficients: np.ndarray
    independent_count: int

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=float))
        if not np.any(c != 0.0):
            raise ValueError("dependence coefficients must not be all zero")
        k = int(self.independent_count)
        if not 1 <= k < c.shape[0]:
            raise ValueError(
                f"independent_count must lie in [1, {c.shape[0] - 1}], got {k}")
        c.setflags(write=False)
        object.__setattr__(self, "coefficients", c)
        object.__setattr__(self, "independent_count", k)


@dataclass(frozen=True)
class DependenceVerdict:
    holds: bool
    sample: np.ndarray | None = None
    magnitude: float = 0.0


def _boundary_masks(sys, spectrum_report):
    """(beyond, near): the eigenvalues past the stability boundary and within
    tol_used times the largest singular value of it, the band the numerical
    rank cuts at. Continuous forms test real parts against 0; the discrete
    map tests |eigenvalue + 1|, the step map's modulus, against 1."""
    band = spectrum_report.tol_used * spectrum_report.singular_values[0]
    eigs = spectrum_report.eigenvalues
    past = np.abs(eigs + 1.0) - 1.0 if sys.form is SystemForm.discrete_map else eigs.real
    return past > band, np.abs(past) <= band


def _classify_stability(sys, spectrum_report):
    """Stability class plus count of boundary-grazing eigenvalues (see _boundary_masks)."""
    beyond, near = _boundary_masks(sys, spectrum_report)
    count = int(np.count_nonzero(near))
    return (UNSTABLE if np.any(beyond) else MARGINAL if count else STABLE), count


def _build_reports(sys, F, DF, points, rel_tol) -> list[EquilibriumReport]:
    """The report of each row of points, _STACK rows to a stacked residual and spectrum."""
    reports = []
    for lo in range(0, len(points), _STACK):
        block = points[lo:lo + _STACK]
        residuals = _row_norms(F(block))
        spectra = svd_spectra(DF(block), rel_tol)
        for x, res, spectrum_report in zip(block, residuals, spectra):
            stability, marginal_count = _classify_stability(sys, spectrum_report)
            x = x.copy()
            x.setflags(write=False)
            reports.append(EquilibriumReport(
                point=x,
                residual=float(res),
                spectrum=spectrum_report,
                attractor_dim=sys.n - spectrum_report.numerical_rank,
                stability=stability,
                marginal_count=marginal_count,
            ))
    return reports


def _lockstep_lm(F, DF, starts, tol) -> np.ndarray:
    """Levenberg-Marquardt on the stacked residual map F, with Jacobian DF, from each start.

    Each iteration solves (J^T J + mu I) step = -J^T r at most _LM_TRIES
    times, raising mu tenfold after a step that does not lower |F| and
    lowering it tenfold, to at least _LM_MU_FLOOR, after one that does.
    The damping keeps the system nonsingular, so a rank-deficient Jacobian
    near a continuum of equilibria needs no special case. A start stops
    once |F| <= tol / 10 (_STOP_TOL), after _LM_TRIES rejected steps in a
    row (_STOP_TRIES), when its last _LM_STALL_STEPS accepted steps lowered
    |F| by less than _LM_STALL_GAIN in total (_STOP_STALL; Moré 1978), or
    after _LM_MAX_ITER iterations (_STOP_MAX_ITER).

    Every piece of a start's state (its point, residual, gradient J^T r,
    |F|, mu, tries, iteration count, accepted steps, ring of its last
    accepted norms and stop reason) is one row of an array over the
    starts. Up to _STACK starts are live at once: each holds its J^T J in
    a slot of a (_STACK, n, n) buffer, taken from a mask of the free slots
    when it is loaded and given back when it stops, so memory does not
    grow with the number of starts. A round makes one stacked solve over
    the live starts, one stacked residual of their trial points, and one
    stacked Jacobian for those that accepted a step and go on; then the
    next starts are loaded into the free slots. Each kernel gives a start
    the bits of its own one-start call, so the result does not depend on
    _STACK.

    Returns one row per start, in start order: the point it ends at, then
    converged (1.0 when |F| <= tol, else 0.0), its iteration count (its
    Jacobian evaluations), its stop reason, its final |F| and its final mu.
    """
    count, n = starts.shape
    X, R, G = starts.astype(float), np.empty((count, n)), np.empty((count, n))
    norm, mu = np.empty(count), np.full(count, _LM_MU_START)
    # ring[s, i % (_LM_STALL_STEPS + 1)] holds |F| after start s's i-th accepted step
    ring = np.zeros((count, _LM_STALL_STEPS + 1))
    tries, iters, accepted, slot = (np.zeros(count, dtype=np.intp) for _ in range(4))
    # a start stopped at the tolerance, on loading or later, keeps this reason
    why = np.full(count, _STOP_TOL)
    JtJ = np.empty((min(_STACK, count), n, n))
    # the starts being refined, and those of them that start an iteration
    live = go = np.zeros(0, dtype=np.intp)
    loaded = 0
    while True:
        while len(live) < len(JtJ) and loaded < count:
            at = np.arange(loaded, min(count, loaded + len(JtJ) - len(live)))
            loaded += len(at)
            R[at] = F(X[at])
            norm[at] = ring[at, 0] = _row_norms(R[at])
            # a decade inside tol, so a start that converges has margin to spare
            new = at[~(norm[at] <= 0.1 * tol)]
            free = np.ones(len(JtJ), dtype=bool)
            free[slot[live]] = False
            slot[new] = np.flatnonzero(free)[:len(new)]
            live, go = np.concatenate([live, new]), np.concatenate([go, new])
        if not len(live):
            return np.column_stack([X, norm <= tol, iters, why, norm, mu])

        if len(go):
            J = DF(X[go])
            Jt = J.transpose(0, 2, 1)
            G[go] = np.matmul(Jt, R[go][:, :, None])[:, :, 0]
            # J^T J + mu I, with the bits of the sum with mu * eye for a finite
            # mu: adding its +0 turns an off-diagonal -0 into +0, and mu * 1 is mu
            JtJ[slot[go]] = np.matmul(Jt, J) + 0.0
            iters[go] += 1

        A = JtJ[slot[live]]
        A.reshape(len(live), n * n)[:, ::n + 1] += mu[live, None]
        trial = X[live] + np.linalg.solve(A, -G[live][:, :, None])[:, :, 0]
        R_trial = F(trial)
        norm_trial = _row_norms(R_trial)
        better = norm_trial < norm[live]
        go, worse = live[better], live[~better]
        X[go], R[go], norm[go] = trial[better], R_trial[better], norm_trial[better]
        accepted[go] += 1
        ring[go, accepted[go] % (_LM_STALL_STEPS + 1)] = norm[go]
        mu[go] = np.maximum(0.1 * mu[go], _LM_MU_FLOOR)
        tries[go] = 0
        mu[worse] *= 10.0
        tries[worse] += 1

        spent = tries[worse] == _LM_TRIES
        why[worse[spent]] = _STOP_TRIES
        back = ring[go, (accepted[go] - _LM_STALL_STEPS) % (_LM_STALL_STEPS + 1)]
        stall = (accepted[go] >= _LM_STALL_STEPS) & (norm[go] > (1.0 - _LM_STALL_GAIN) * back)
        why[go[stall]] = _STOP_STALL
        go = go[~stall]
        last = iters[go] == _LM_MAX_ITER
        why[go[last]] = _STOP_MAX_ITER
        go = go[~last]
        go = go[norm[go] > 0.1 * tol]
        live = np.concatenate([worse[~spent], go])


def _start_table(sys: DynamicalSystem, starts, tol) -> np.ndarray:
    """The _lockstep_lm row of each start, in start order.

    The starts are cut into one contiguous range per usable CPU, each of at
    least _RANGE_MIN_STARTS starts, and forked processes refine every range
    after the first (see _forked.run_in_ranges).
    """
    F, DF = _bound_residual(sys)

    def refine(lo, hi, out):
        out.write(_lockstep_lm(F, DF, starts[lo:hi], tol).tobytes())

    rows = io.BytesIO()
    _forked.run_in_ranges(refine, _forked.range_cuts(len(starts), _RANGE_MIN_STARTS), rows)
    return np.frombuffer(rows.getvalue()).reshape(len(starts), -1)


def _as_box(box, n):
    box = np.asarray(box, dtype=float)
    if not np.all(np.isfinite(box)):
        raise ValueError(f"box bounds must be finite, got {box.tolist()}")
    if box.shape == (2,):
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2):
        raise ValueError(f"box must have shape ({n}, 2) or (2,), got {box.shape}")
    if np.any(box[:, 1] <= box[:, 0]):
        raise ValueError("box must be non-degenerate (hi > lo per coordinate)")
    return box


def _uniform_in_box(box, count, seed):
    """`count` points drawn uniformly from an (n, 2) box."""
    unit = np.random.default_rng(seed).random((count, box.shape[0]))
    return box[:, 0] + unit * (box[:, 1] - box[:, 0])


def find_equilibria(
    sys: DynamicalSystem,
    box,
    n_starts: int = 32,
    seed: int = 0,
    *,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> list[EquilibriumReport]:
    """Multi-start Levenberg-Marquardt search for equilibria inside a box.

    Each start is refined by Levenberg-Marquardt (see _lockstep_lm) and
    kept if it reaches |F| <= DEFAULT_RESIDUAL_TOL. Starts are drawn
    uniformly from the box by numpy's Generator seeded with `seed`, so the
    result is deterministic for a given seed. Converged points are sorted
    lexicographically and then deduplicated (distance below
    1e-6 * (1 + |x|)), which makes the output independent of start order.
    The starts are refined _STACK at a time in lockstep, and on Linux in
    one forked process per usable CPU; each kernel gives every start the
    bits of its own one-start call, so the result is the same on any CPU
    count. The reports are built _STACK points at a time, with one stacked
    SVD and eigvals per block.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    starts = _uniform_in_box(_as_box(box, sys.n), n_starts, seed)
    table = _start_table(sys, starts, DEFAULT_RESIDUAL_TOL)
    converged = table[table[:, sys.n] == 1.0, :sys.n]
    del table
    converged = converged[sorted(range(len(converged)), key=lambda i: tuple(converged[i]))]
    kept = np.empty_like(converged)
    count = 0
    for x in converged:
        limit = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if np.all(_row_norms(kept[:count] - x) >= limit):
            kept[count] = x
            count += 1

    # kinks crossed mid-search are expected; DF applies the convention silently
    F, DF = _bound_residual(sys)
    return _build_reports(sys, F, DF, kept[:count], rel_tol)


def attractor_dimension(sys: DynamicalSystem, x_star, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """State dimension minus residual-Jacobian rank at an equilibrium."""
    res = float(np.linalg.norm(residual_vector(sys, x_star)))
    if res > _EQUILIBRIUM_RESIDUAL_LIMIT:
        raise NotAnEquilibriumError(res, _EQUILIBRIUM_RESIDUAL_LIMIT)
    spectrum_report = svd_spectrum(residual_jacobian(sys, x_star), rel_tol=rel_tol)
    return sys.n - spectrum_report.numerical_rank


def verify_dependence(
    sys: DynamicalSystem,
    dep: FunctionalDependence,
    n_samples: int = 64,
    seed: int = 0,
    *,
    box=None,
) -> DependenceVerdict:
    """Monte Carlo check of a declared component relation over a box.

    Samples states uniformly from the box (numpy's Generator seeded with
    `seed`) and tests |sum_i c_i f_i(x)| against 1e-8 * (1 + max_i |f_i(x)|)
    at each. The relation may hold only on a region (fixed activation
    pattern); pass that region as the box.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    c = dep.coefficients
    if c.shape != (sys.n,):
        raise ValueError(
            f"coefficients have shape {c.shape}, expected ({sys.n},)")
    box = _as_box((-5.0, 5.0) if box is None else box, sys.n)
    samples = _uniform_in_box(box, n_samples, seed)
    worst = 0.0
    for x in samples:
        f = residual_vector(sys, x)
        magnitude = abs(float(c @ f))
        limit = 1e-8 * (1.0 + float(np.max(np.abs(f))))
        if magnitude > limit:
            return DependenceVerdict(holds=False, sample=x, magnitude=magnitude)
        worst = max(worst, magnitude)
    return DependenceVerdict(holds=True, sample=None, magnitude=worst)


def dimension_from_dependence(
    sys: DynamicalSystem,
    dep: FunctionalDependence,
    x_witness,
    rel_tol: float = DEFAULT_RANK_TOL,
    *,
    box=None,
    n_samples: int = 64,
    seed: int = 0,
) -> int:
    """Attractor dimension n - k from a declared dependence plus a witness.

    The witness must be an equilibrium whose residual-Jacobian rank equals
    the declared independent_count; the result is cross-checked against
    attractor_dimension at the witness.
    """
    verdict = verify_dependence(sys, dep, n_samples, seed, box=box)
    if not verdict.holds:
        raise ValueError(
            "declared dependence violated: |sum c_i f_i| = "
            f"{verdict.magnitude:.3e} at sample {verdict.sample}")
    dim = attractor_dimension(sys, x_witness, rel_tol)
    rank = sys.n - dim
    if rank != dep.independent_count:
        raise InconsistentWitnessError(
            f"Jacobian rank {rank} at the witness does not equal the "
            f"declared independent count {dep.independent_count}")
    return sys.n - dep.independent_count


def _report_to_json(r: EquilibriumReport) -> dict:
    return {
        "point": r.point.tolist(),
        "residual": r.residual,
        "attractor_dim": r.attractor_dim,
        "stability": r.stability,
        "marginal_count": r.marginal_count,
        "pinv_fallback": r.pinv_fallback,
        "spectrum": spectrum_to_dict(r.spectrum),
    }


def reports_to_json(reports: list[EquilibriumReport]) -> list[dict]:
    return [_report_to_json(r) for r in reports]
