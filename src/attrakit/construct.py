"""Ground-truth generator: relu networks with a built-in continuous attractor.

The generated system has the post_activation form -x + W relu(x) + b. Its
state splits into an active block P (p coordinates, entries >= 0 on the
attractor) and an inactive block Z (z coordinates, entries < 0). W_P is
symmetric with top eigenvalue exactly 1 of multiplicity m, so the set

    { (x_P, x_Z) : x_P = basis @ c, x_Z = W_ZP @ x_P + b_Z, c >= 0 }

is an m-dimensional family of equilibria. Instances double as oracles: the
attractor dimension, the equilibrium set, and the Jacobian spectrum on the
set are all known by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynsys import (
    Activation,
    DynamicalSystem,
    SystemForm,
    _gemv,
    _row_norms,
    _warn_on_kink,
    stacked_field,
    system_from_dict,
    system_to_dict,
    write_json,
)
from .equilibria import _STACK, _boundary_masks, _bound_residual
from .spectral import svd_spectra

__all__ = [
    "ConstructedAttractor",
    "ConstructionError",
    "ConstructionReport",
    "construct_relu_attractor",
    "verify_construction",
    "sample_attractor_points",
    "constructed_to_dict",
    "constructed_from_dict",
    "save_constructed",
    "load_constructed",
]


class ConstructionError(RuntimeError):
    """The requested instance could not be built with a valid sign region."""


@dataclass(frozen=True)
class ConstructedAttractor:
    """A generated system plus the parameterization of its equilibrium set."""

    sys: DynamicalSystem
    p: int
    z: int
    m: int
    basis: np.ndarray   # (p, m), orthonormal columns, entrywise >= 0
    W_ZP: np.ndarray    # (z, p)
    b_Z: np.ndarray     # (z,)
    c_max: float = 10.0

    def __post_init__(self):
        if not 1 <= self.m <= self.p:
            raise ValueError(f"need 1 <= m <= p, got m={self.m}, p={self.p}")
        if self.z < 1:
            raise ValueError(f"need z >= 1, got z={self.z}")
        if self.sys.n != self.p + self.z:
            raise ValueError("system dimension must equal p + z")
        if not (np.isfinite(self.c_max) and self.c_max > 0):
            raise ValueError(f"c_max must be a finite number > 0, got {self.c_max}")
        basis = np.array(self.basis, dtype=float)
        W_ZP = np.array(self.W_ZP, dtype=float)
        b_Z = np.array(self.b_Z, dtype=float).reshape(-1)
        if basis.shape != (self.p, self.m):
            raise ValueError(f"basis has shape {basis.shape}, expected ({self.p}, {self.m})")
        if W_ZP.shape != (self.z, self.p):
            raise ValueError(f"W_ZP has shape {W_ZP.shape}, expected ({self.z}, {self.p})")
        if b_Z.shape != (self.z,):
            raise ValueError(f"b_Z has shape {b_Z.shape}, expected ({self.z},)")
        for arr in (basis, W_ZP, b_Z):
            arr.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "W_ZP", W_ZP)
        object.__setattr__(self, "b_Z", b_Z)
        object.__setattr__(self, "c_max", float(self.c_max))

    @property
    def n(self) -> int:
        return self.p + self.z

    def point_at(self, c) -> np.ndarray:
        """Map coefficients c >= 0 to the equilibrium they parameterize."""
        c = np.atleast_1d(np.asarray(c, dtype=float))
        if c.shape != (self.m,):
            raise ValueError(f"coefficients have shape {c.shape}, expected ({self.m},)")
        return self._points_at(c[None])[0]

    def _points_at(self, C: np.ndarray) -> np.ndarray:
        """point_at of each row of a (k, m) stack of coefficients."""
        x_P = _gemv(self.basis, C)
        return np.concatenate([x_P, _gemv(self.W_ZP, x_P) + self.b_Z], axis=1)

    def project(self, x) -> tuple[np.ndarray, float]:
        """Foot point on the attractor set (cone-clipped) and distance to it."""
        x = np.asarray(x, dtype=float)
        c = np.clip(self.basis.T @ x[: self.p], 0.0, None)
        foot = self.point_at(c)
        return foot, float(np.linalg.norm(x - foot))


def construct_relu_attractor(p: int, z: int, m: int, seed: int,
                             c_max: float = 10.0) -> ConstructedAttractor:
    """Generate an instance whose attractor dimension is exactly m.

    The m top eigenvectors of W_P are drawn nonnegative with disjoint
    supports (one coordinate group per eigenvector), so every coefficient
    vector in [0, c_max]^m yields x_P >= 0 entrywise and the whole box is
    valid. The remaining eigenvalues sit in [0.2, 0.8], leaving a spectral
    gap of at least 0.2 below the top eigenvalue 1. b_Z is pushed negative
    far enough that x_Z < 0 holds with margin over the entire box.
    """
    if not 1 <= m <= p:
        raise ValueError(f"need 1 <= m <= p, got m={m}, p={p}")
    if z < 1:
        raise ValueError(f"need z >= 1, got z={z}")
    if not (np.isfinite(c_max) and c_max > 0):
        raise ValueError(f"c_max must be a finite number > 0, got {c_max}")
    rng = np.random.default_rng(seed)

    groups = np.array_split(rng.permutation(p), m)
    V = np.zeros((p, m))
    for i, g in enumerate(groups):
        vals = rng.uniform(0.2, 1.0, size=g.shape[0])
        V[g, i] = vals / np.linalg.norm(vals)

    if m < p:
        Q, _ = np.linalg.qr(np.concatenate([V, rng.standard_normal((p, p - m))], axis=1))
        U = Q[:, m:]
        mu = rng.uniform(0.2, 0.8, size=p - m)
        W_P = V @ V.T + (U * mu) @ U.T
    else:
        W_P = V @ V.T
    W_P = 0.5 * (W_P + W_P.T)

    W_ZP = rng.standard_normal((z, p))
    # worst-case positive contribution of each coefficient over the box
    pos = np.clip(W_ZP @ V, 0.0, None).sum(axis=1)
    b_Z = -(c_max * pos + rng.uniform(0.5, 1.5, size=z))

    W_PZ = 0.5 * rng.standard_normal((p, z))
    W_Z = 0.5 * rng.standard_normal((z, z))
    W = np.block([[W_P, W_PZ], [W_ZP, W_Z]])
    n = p + z
    sys = DynamicalSystem(n=n, W=W, A=np.eye(n), b=np.concatenate([np.zeros(p), b_Z]),
                          activation=Activation.relu, form=SystemForm.post_activation)
    ca = ConstructedAttractor(sys=sys, p=p, z=z, m=m, basis=V, W_ZP=W_ZP,
                              b_Z=b_Z, c_max=c_max)

    # defensive sign check at the box corners; infeasibility here is a bug
    for c in (np.zeros(m), np.full(m, c_max)):
        x = ca.point_at(c)
        if np.any(x[:p] < 0.0) or np.any(x[p:] >= 0.0):
            raise ConstructionError(
                f"sign region infeasible at c={c}: x_P min {x[:p].min():.3e}, "
                f"x_Z max {x[p:].max():.3e}")
    return ca


@dataclass(frozen=True)
class ConstructionReport:
    """Per-sample verification of residual, rank, and Jacobian spectrum."""

    n_samples: int
    expected_rank: int
    max_residual: float
    ranks: np.ndarray
    zero_eig_counts: np.ndarray
    max_nonzero_realpart: float
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_construction(ca: ConstructedAttractor, n_samples: int = 25,
                        seed: int = 0) -> ConstructionReport:
    """Check sampled attractor points: residual <= 1e-12, Jacobian rank
    n - m, exactly m eigenvalues whose real parts lie in the band the rank
    cuts at (1e-8 times the largest singular value), the rest in the open
    left half plane.

    The samples are drawn and checked _STACK at a time, with one stacked
    field, Jacobian, SVD and eigvals per block; each sample gets the bits
    of its own one-point calls. A sample whose relu argument has an exact
    0 gives one KinkWarning, as residual_jacobian would.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    n, m = ca.n, ca.m
    expected_rank = n - m
    field, jacobian = stacked_field(ca.sys), _bound_residual(ca.sys)[1]
    failures = []
    residuals = np.empty(n_samples)
    ranks = np.empty(n_samples, dtype=int)
    zero_counts = np.empty(n_samples, dtype=int)
    max_re = -np.inf
    for lo in range(0, n_samples, _STACK):
        X = ca._points_at(rng.uniform(0.0, ca.c_max, size=(min(_STACK, n_samples - lo), m)))
        residuals[lo:lo + len(X)] = _row_norms(field(X))
        _warn_on_kink(ca.sys, X, stacklevel=2)
        for i, spectrum_report in enumerate(svd_spectra(jacobian(X)), lo):
            if residuals[i] > 1e-12:
                failures.append((i, "residual", float(residuals[i])))
            ranks[i] = spectrum_report.numerical_rank
            if ranks[i] != expected_rank:
                failures.append((i, "rank", int(ranks[i])))
            _, near_zero = _boundary_masks(ca.sys, spectrum_report)
            zero_counts[i] = int(near_zero.sum())
            if zero_counts[i] != m:
                failures.append((i, "zero_eigs", int(zero_counts[i])))
            rest = spectrum_report.eigenvalues[~near_zero]
            if rest.size:
                worst = float(rest.real.max())
                max_re = max(max_re, worst)
                if worst >= 0.0:
                    failures.append((i, "negative_eigs", worst))
    return ConstructionReport(
        n_samples=n_samples,
        expected_rank=expected_rank,
        max_residual=float(residuals.max()),
        ranks=ranks,
        zero_eig_counts=zero_counts,
        max_nonzero_realpart=float(max_re),
        failures=tuple(failures),
    )


def sample_attractor_points(ca: ConstructedAttractor, count: int,
                            seed: int = 0) -> np.ndarray:
    """Uniform samples from the coefficient box, mapped onto the set."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    return ca._points_at(rng.uniform(0.0, ca.c_max, size=(count, ca.m)))


def constructed_to_dict(ca: ConstructedAttractor) -> dict:
    d = system_to_dict(ca.sys)
    d["ground_truth"] = {
        "p": ca.p,
        "z": ca.z,
        "m": ca.m,
        "basis": ca.basis.tolist(),
        "W_ZP": ca.W_ZP.tolist(),
        "b_Z": ca.b_Z.tolist(),
        "c_max": ca.c_max,
    }
    return d


def constructed_from_dict(d: dict) -> ConstructedAttractor:
    if "ground_truth" not in d:
        raise ValueError("missing 'ground_truth' block")
    g = d["ground_truth"]
    return ConstructedAttractor(
        sys=system_from_dict(d),
        p=int(g["p"]),
        z=int(g["z"]),
        m=int(g["m"]),
        basis=g["basis"],
        W_ZP=g["W_ZP"],
        b_Z=g["b_Z"],
        c_max=float(g["c_max"]),
    )


def save_constructed(ca: ConstructedAttractor, path) -> None:
    write_json(path, constructed_to_dict(ca))


def load_constructed(path) -> ConstructedAttractor:
    return constructed_from_dict(json.loads(Path(path).read_text()))
