"""Singular/eigen spectra of Jacobians, numerical rank, dispersion statistics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectrumReport",
    "UndefinedMetricError",
    "svd_factors",
    "svd_spectrum",
    "svd_spectra",
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
    if M.size == 0:
        raise ValueError(f"matrix has no entries (shape {M.shape[0]}x{M.shape[1]})")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    return M


def svd_factors(M) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD factors (U, s, Vt) with s sorted descending."""
    M = _as_finite_matrix(M)
    return np.linalg.svd(M, full_matrices=False)


def svd_spectrum(M, rel_tol: float = DEFAULT_RANK_TOL) -> SpectrumReport:
    """SpectrumReport of a (possibly rectangular) matrix."""
    return svd_spectra(_as_finite_matrix(M)[None], rel_tol)[0]


def svd_spectra(Ms, rel_tol: float = DEFAULT_RANK_TOL) -> list[SpectrumReport]:
    """The SpectrumReport of each matrix of a (k, r, c) stack, as svd_spectrum gives it.

    One stacked SVD, and one stacked eigvals for square matrices, give each
    matrix the bits of its own call. A stack's eigenvalues come back complex
    when any matrix has a complex one, so each matrix whose imaginary parts
    are all 0 gets its real parts, as np.linalg.eigvals of it alone returns.
    """
    Ms = np.asarray(Ms, dtype=float)
    if Ms.ndim != 3:
        raise ValueError(f"expected a stack of matrices, got ndim={Ms.ndim}")
    if not np.all(np.isfinite(Ms)):
        raise ValueError("matrix contains non-finite entries")
    s = np.linalg.svd(Ms, compute_uv=False)
    ranks, cvs, gaps = _row_rank(s, rel_tol), _row_cv(s), _row_gap(s)
    eigs = [None] * len(Ms)
    if Ms.shape[1] == Ms.shape[2]:
        eigs = [w if w.imag.any() else w.real for w in np.linalg.eigvals(Ms)]
    return [SpectrumReport(
        singular_values=s[i],
        cv=float(cvs[i]),
        max_gap_ratio=float(gaps[i]),
        numerical_rank=int(ranks[i]),
        tol_used=float(rel_tol),
        eigenvalues=eigs[i],
    ) for i in range(len(Ms))]


def eig_spectrum(M) -> np.ndarray:
    """Eigenvalues (with multiplicity) of a square matrix."""
    M = _as_finite_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise ValueError(f"eigenvalues need a square matrix, got {M.shape}")
    return np.linalg.eigvals(M)


def _row_rank(s: np.ndarray, rel_tol: float) -> np.ndarray:
    """Numerical rank of each row of a (k, r) stack of descending values: the
    count of values above rel_tol times the row's first (0 for a zero row)."""
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    above = s > rel_tol * s[:, :1]
    # the count is the index of the first value at or below the cut; a False
    # column past the end gives r for a row that is above it throughout
    return np.argmin(np.concatenate([above, np.zeros((len(s), 1), bool)], axis=1), axis=1)


def _row_cv(s: np.ndarray) -> np.ndarray:
    """cv of each row of a (k, r) stack: population variance over the mean
    squared as a product; 0 for a row whose mean is not positive."""
    mean = s.mean(axis=1)
    return np.divide(s.var(axis=1), mean * mean, out=np.zeros_like(mean), where=mean > 0.0)


def _row_gap(s: np.ndarray) -> np.ndarray:
    """Largest ratio of consecutive values in each row of a (k, r) stack:
    1 for r < 2, inf for a row with a zero past its first value."""
    if s.shape[1] < 2:
        return np.ones(len(s))
    tail = s[:, 1:]
    return np.divide(s[:, :-1], tail, out=np.full_like(tail, np.inf),
                     where=tail != 0.0).max(axis=1)


def numerical_rank(singular_values, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Count singular values above rel_tol * largest (0 if all are zero)."""
    s = np.atleast_1d(np.asarray(singular_values, dtype=float))
    if np.any(s < 0):
        raise ValueError("singular values must be non-negative")
    if np.any(np.diff(s) > 0):
        raise ValueError("singular values must be sorted descending")
    return int(_row_rank(s.reshape(1, -1), rel_tol)[0])


def cv_metric(values) -> float:
    """Population variance over squared mean (scale-free dispersion)."""
    v = np.atleast_1d(np.asarray(values, dtype=float))
    if v.size == 0:
        raise UndefinedMetricError("cv of an empty collection is undefined")
    mean = float(v.mean())
    if mean <= 0.0:
        raise UndefinedMetricError(f"cv needs a positive mean, got {mean}")
    return float(_row_cv(v.reshape(1, -1))[0])


def max_gap_ratio(singular_values) -> float:
    """Largest ratio between consecutive sorted values; inf past a zero."""
    s = np.atleast_1d(np.asarray(singular_values, dtype=float))
    return float(_row_gap(s.reshape(1, -1))[0])


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
