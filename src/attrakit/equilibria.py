"""Equilibrium finding, stability classes, and local attractor dimension.

An equilibrium is a zero of the residual map: the vector field itself for
continuous forms, and eval_field(x) - x (fixed-point condition) for the
discrete map. The attractor dimension at an equilibrium is the state
dimension minus the numerical rank of the residual Jacobian there.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dynsys import (
    DynamicalSystem,
    KinkWarning,
    SystemForm,
    eval_field,
    jacobian_analytic,
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
DEFAULT_ETA = 1e-6


class NotAnEquilibriumError(ValueError):
    """The supplied point does not satisfy the equilibrium residual bound."""

    def __init__(self, residual: float, limit: float):
        self.residual = float(residual)
        self.limit = float(limit)
        super().__init__(
            f"residual {residual:.3e} exceeds the equilibrium bound {limit:.3e}")


class InconsistentWitnessError(ValueError):
    """Jacobian rank at the witness disagrees with the declared dependence."""


def residual_vector(sys: DynamicalSystem, x) -> np.ndarray:
    """F(x) whose zeros are the system's equilibria/fixed points."""
    f = eval_field(sys, x)
    if sys.form is SystemForm.discrete_map:
        return f - np.asarray(x, dtype=float)
    return f


def residual_jacobian(sys: DynamicalSystem, x) -> np.ndarray:
    """Jacobian of residual_vector at x."""
    J = jacobian_analytic(sys, x)
    if sys.form is SystemForm.discrete_map:
        return J - np.eye(sys.n)
    return J


@dataclass(frozen=True)
class EquilibriumReport:
    point: np.ndarray
    residual: float
    spectrum: SpectrumReport
    attractor_dim: int
    stability: str
    marginal_count: int
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


def _classify_stability(sys, residual_eigs, eta):
    """Stability class plus count of boundary-grazing eigenvalues.

    Continuous forms look at real parts against 0; the discrete map looks
    at |eigenvalue| of the step map (residual eigenvalues shifted by +1)
    against 1.
    """
    if sys.form is SystemForm.discrete_map:
        mags = np.abs(residual_eigs + 1.0)
        beyond = mags > 1.0 + eta
        near = np.abs(mags - 1.0) <= eta
    else:
        re = residual_eigs.real
        beyond = re > eta
        near = np.abs(re) <= eta
    if np.any(beyond):
        return UNSTABLE, int(np.count_nonzero(near))
    if np.any(near):
        return MARGINAL, int(np.count_nonzero(near))
    return STABLE, 0


def _build_report(sys, x, rel_tol, eta, pinv_fallback=False):
    res = float(np.linalg.norm(residual_vector(sys, x)))
    spectrum_report = svd_spectrum(residual_jacobian(sys, x), rel_tol=rel_tol)
    stability, marginal_count = _classify_stability(sys, spectrum_report.eigenvalues, eta)
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return EquilibriumReport(
        point=x,
        residual=res,
        spectrum=spectrum_report,
        attractor_dim=sys.n - spectrum_report.numerical_rank,
        stability=stability,
        marginal_count=marginal_count,
        pinv_fallback=pinv_fallback,
    )


def _newton_refine(sys, x0, tol, max_iter=100, max_halvings=30):
    """Damped Newton on the residual map from one start.

    Falls back to a least-squares (pseudo-inverse) step when the Jacobian is
    numerically singular, which is the expected case near a continuum of
    equilibria. Returns (x, converged, pinv_used).
    """
    x = np.array(x0, dtype=float)
    pinv_used = False
    r = residual_vector(sys, x)
    rn = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rn <= tol:
            return x, True, pinv_used
        J = residual_jacobian(sys, x)
        s = np.linalg.svd(J, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
            step = -np.linalg.lstsq(J, r, rcond=1e-10)[0]
            pinv_used = True
        else:
            step = np.linalg.solve(J, -r)
        if not np.all(np.isfinite(step)):
            return x, rn <= tol, pinv_used
        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            xn = x + alpha * step
            r_new = residual_vector(sys, xn)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                x, r, rn = xn, r_new, rn_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return x, rn <= tol, pinv_used


def _as_box(box, n):
    box = np.asarray(box, dtype=float)
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
    eta: float = DEFAULT_ETA,
) -> list[EquilibriumReport]:
    """Multi-start damped-Newton search for equilibria inside a box.

    Starts are drawn uniformly from the box by numpy's Generator seeded
    with `seed`, so the result is deterministic for a given seed. Converged
    points are sorted lexicographically and then deduplicated (distance
    below 1e-6 * (1 + |x|)), which makes the output independent of start
    order.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    starts = _uniform_in_box(_as_box(box, sys.n), n_starts, seed)

    # kinks crossed mid-iteration are expected; the convention is fixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KinkWarning)
        results = [_newton_refine(sys, x0, tol) for x0 in starts]

    converged = [(x, pinv) for x, ok, pinv in results if ok]
    converged.sort(key=lambda item: tuple(item[0]))
    kept: list[tuple[np.ndarray, bool]] = []
    for x, pinv in converged:
        limit = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if all(np.linalg.norm(x - y) >= limit for y, _ in kept):
            kept.append((x, pinv))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KinkWarning)
        return [_build_report(sys, x, rel_tol, eta, pinv) for x, pinv in kept]


def attractor_dimension(sys: DynamicalSystem, x_star, rel_tol: float = DEFAULT_RANK_TOL,
                        *, residual_limit: float = 1e-8) -> int:
    """State dimension minus residual-Jacobian rank at an equilibrium."""
    res = float(np.linalg.norm(residual_vector(sys, x_star)))
    if res > residual_limit:
        raise NotAnEquilibriumError(res, residual_limit)
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


def reports_to_json(reports: list[EquilibriumReport]) -> list[dict]:
    out = []
    for r in reports:
        out.append({
            "point": r.point.tolist(),
            "residual": r.residual,
            "attractor_dim": r.attractor_dim,
            "stability": r.stability,
            "marginal_count": r.marginal_count,
            "pinv_fallback": r.pinv_fallback,
            "spectrum": spectrum_to_dict(r.spectrum),
        })
    return out
