"""Singular/eigen spectra of Jacobians, numerical rank, dispersion statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumReport",
    "UndefinedMetricError",
    "svd_factors",
    "svd_spectrum",
    "eig_spectrum",
    "numerical_rank",
    "cv_metric",
    "max_gap_ratio",
    "spectrum_to_dict",
]

DEFAULT_RANK_TOL = 1e-8


class UndefinedMetricError(ValueError):
    """The requested dispersion statistic is undefined for the given values."""


@dataclass(frozen=True)
class SpectrumReport:
    """Summary of one matrix spectrum.

    singular_values are sorted descending; cv is population variance of the
    singular values over their squared mean; numerical_rank counts values
    above tol_used * max; max_gap_ratio is the largest consecutive ratio
    (inf when a trailing value is zero). eigenvalues are present for square
    inputs only.
    """

    singular_values: np.ndarray
    cv: float
    max_gap_ratio: float
    numerical_rank: int
    tol_used: float
    eigenvalues: np.ndarray | None = None


def _as_finite_matrix(M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def svd_factors(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors (U, s, Vt) with s sorted descending."""
    M = _as_finite_matrix(M)
    return np.linalg.svd(M, full_matrices=False)


def svd_spectrum(M, rel_tol: float = DEFAULT_RANK_TOL) -> SpectrumReport:
    """SpectrumReport of a (possibly rectangular) matrix."""
    M = _as_finite_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    cv = cv_metric(s) if s.max(initial=0.0) > 0.0 else 0.0
    eig = None
    if M.shape[0] == M.shape[1]:
        eig = np.linalg.eigvals(M)
    return SpectrumReport(
        singular_values=s,
        cv=float(cv),
        max_gap_ratio=max_gap_ratio(s),
        numerical_rank=numerical_rank(s, rel_tol),
        tol_used=float(rel_tol),
        eigenvalues=eig,
    )


def eig_spectrum(M) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a square matrix."""
    M = _as_finite_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {M.shape}")
    return np.linalg.eigvals(M)


def numerical_rank(singular_values, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol * largest (0 if all are zero)."""
    s = np.atleast_1d(np.asarray(singular_values, dtype=float))
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    if s.size == 0:
        return 0
    if np.any(s < 0):
        raise ValueError("singular values must be non-negative")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be sorted descending")
    s_max = float(s[0])
    if s_max == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s_max))


def cv_metric(values) -> float:
    """Population variance over squared mean (scale-free dispersion)."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise UndefinedMetricError("cv of an empty collection is undefined")
    mean = float(v.mean())
    if mean <= 0.0:
        raise UndefinedMetricError(f"cv needs a positive mean, got {mean}")
    return float(v.var() / mean**2)


def max_gap_ratio(singular_values) -> float:
    """Largest ratio between consecutive sorted values; inf past a zero."""
    s = np.atleast_1d(np.asarray(singular_values, dtype=float))
    if s.size < 2:
        return 1.0
    if np.any(s[1:] == 0.0):
        return float("inf")
    return float(np.max(s[:-1] / s[1:]))


def spectrum_to_dict(report: SpectrumReport) -> dict:
    """JSON-ready form; an infinite max_gap_ratio becomes None (JSON null)."""
    gap = report.max_gap_ratio
    return {
        "singular_values": report.singular_values.tolist(),
        "cv": report.cv,
        "rank": report.numerical_rank,
        "tol": report.tol_used,
        "max_gap_ratio": gap if np.isfinite(gap) else None,
    }
