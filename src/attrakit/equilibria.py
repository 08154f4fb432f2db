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
    _warn_on_kink,
    bound_field,
    bound_jacobian,
)
from .spectral import DEFAULT_RANK_TOL, SpectrumReport, spectrum_to_dict, svd_spectrum

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

# Levenberg-Marquardt damping and stop rules of _newton_refine
_LM_MU_START = 1e-3
_LM_MU_FLOOR = 1e-12
_LM_TRIES = 12
_LM_STALL_STEPS = 5
_LM_STALL_GAIN = 0.1
_LM_MAX_ITER = 100

_EQUILIBRIUM_RESIDUAL_LIMIT = 1e-8  # attractor_dimension's bound on |F| at its point

# find_equilibria gives each usable CPU a range of at least this many starts.
# Forking and reaping a ~37 MiB process costs 2.3-3.6 ms and one n = 40 start
# takes 1.0-1.4 ms to refine, so a forked range of 8 starts takes 8-11 ms of
# refinement off this process for under 4 ms of process
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
    """residual_vector and residual_jacobian with sys bound once, kinks silent."""
    field, jac = bound_field(sys), bound_jacobian(sys)
    if sys.form is not SystemForm.discrete_map:
        return field, jac
    eye = np.eye(sys.n)
    return (lambda x: field(x) - x), (lambda x: jac(x) - eye)


def residual_vector(sys: DynamicalSystem, x) -> np.ndarray:
    """F(x) whose zeros are the system's equilibria/fixed points."""
    return _bound_residual(sys)[0](_check_state(sys, x))


def residual_jacobian(sys: DynamicalSystem, x) -> np.ndarray:
    """Jacobian of residual_vector at x, with jacobian_analytic's KinkWarning."""
    x = _check_state(sys, x)
    _warn_on_kink(sys, x)
    return _bound_residual(sys)[1](x)


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


def _build_report(sys, F, DF, x, rel_tol):
    res = float(np.linalg.norm(F(x)))
    spectrum_report = svd_spectrum(DF(x), rel_tol=rel_tol)
    stability, marginal_count = _classify_stability(sys, spectrum_report)
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return EquilibriumReport(
        point=x,
        residual=res,
        spectrum=spectrum_report,
        attractor_dim=sys.n - spectrum_report.numerical_rank,
        stability=stability,
        marginal_count=marginal_count,
    )


def _newton_refine(F, DF, x0, tol):
    """Levenberg-Marquardt on the residual map F, with Jacobian DF, from one start.

    Each iteration solves (J^T J + mu I) step = -J^T r at most _LM_TRIES
    times, raising mu tenfold after a step that does not lower |F| and
    lowering it tenfold, to at least _LM_MU_FLOOR, after one that does.
    The damping keeps the system nonsingular, so a rank-deficient Jacobian
    near a continuum of equilibria needs no special case. A start stops
    once |F| <= tol / 10, after _LM_TRIES rejected steps in a row, when its
    last _LM_STALL_STEPS accepted steps lowered |F| by less than
    _LM_STALL_GAIN in total (Moré 1978), or after _LM_MAX_ITER iterations.
    Returns (x, converged), converged meaning |F| <= tol.
    """
    x = np.array(x0, dtype=float)
    eye = np.eye(x.shape[0])
    r = F(x)
    norms = [float(np.linalg.norm(r))]
    mu = _LM_MU_START
    for _ in range(_LM_MAX_ITER):
        # a decade inside tol, so a start that converges has margin to spare
        if norms[-1] <= 0.1 * tol:
            break
        J = DF(x)
        g, JtJ = J.T @ r, J.T @ J
        for _ in range(_LM_TRIES):
            xn = x + np.linalg.solve(JtJ + mu * eye, -g)
            r_new = F(xn)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < norms[-1]:
                x, r = xn, r_new
                norms.append(rn_new)
                mu = max(0.1 * mu, _LM_MU_FLOOR)
                break
            mu *= 10.0
        else:
            break
        if (len(norms) > _LM_STALL_STEPS
                and norms[-1] > (1.0 - _LM_STALL_GAIN) * norms[-1 - _LM_STALL_STEPS]):
            break
    return x, norms[-1] <= tol


def _converged_points(F, DF, starts, tol) -> list[np.ndarray]:
    """The points of the starts that _newton_refine converges, in start order.

    The starts are cut into one contiguous range per usable CPU, each of at
    least _RANGE_MIN_STARTS starts, and forked processes refine every range
    after the first (see _forked.run_in_ranges); each range gives one
    float64 row (x, converged) per start.
    """
    def refine(lo, hi, out):
        for x0 in starts[lo:hi]:
            x, ok = _newton_refine(F, DF, x0, tol)
            out.write(np.append(x, float(ok)).tobytes())

    rows = io.BytesIO()
    _forked.run_in_ranges(refine, _forked.range_cuts(len(starts), _RANGE_MIN_STARTS), rows)
    table = np.frombuffer(rows.getvalue()).reshape(len(starts), -1)
    # copies, so the table is freed before the reports are built
    return [row[:-1].copy() for row in table if row[-1]]


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
    tol: float = DEFAULT_RESIDUAL_TOL,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> list[EquilibriumReport]:
    """Multi-start Levenberg-Marquardt search for equilibria inside a box.

    Each start is refined by _newton_refine and kept if it reaches
    |F| <= tol. Starts are drawn uniformly from the box by numpy's
    Generator seeded with `seed`, so the result is deterministic for a
    given seed. Converged points are sorted lexicographically and then
    deduplicated (distance below 1e-6 * (1 + |x|)), which makes the output
    independent of start order. On Linux the starts are refined in one
    forked process per usable CPU, with the same result as in one process.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    starts = _uniform_in_box(_as_box(box, sys.n), n_starts, seed)
    # kinks crossed mid-iteration are expected; DF applies the convention silently
    F, DF = _bound_residual(sys)
    converged = sorted(_converged_points(F, DF, starts, tol), key=tuple)
    kept: list[np.ndarray] = []
    for x in converged:
        limit = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if all(np.linalg.norm(x - y) >= limit for y in kept):
            kept.append(x)

    return [_build_report(sys, F, DF, x, rel_tol) for x in kept]


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
