"""Recurrent-style dynamical systems: activations, forms, fields, Jacobians."""

from __future__ import annotations

import enum
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Activation",
    "SystemForm",
    "DynamicalSystem",
    "KinkWarning",
    "make_system",
    "eval_field",
    "bound_field",
    "bound_jacobian",
    "jacobian_analytic",
    "jacobian_fd",
    "system_to_dict",
    "system_from_dict",
    "write_json",
    "save_system",
    "load_system",
]


class KinkWarning(UserWarning):
    """An exact relu kink was hit; the derivative convention 0 was applied."""


def _logistic(x):
    return 1.0 / (1.0 + np.exp(-x))


class Activation(str, enum.Enum):
    identity = "identity"
    relu = "relu"
    tanh = "tanh"
    sine = "sine"
    logistic = "logistic"

    def __call__(self, x):
        return _VALUE[self](np.asarray(x, dtype=float))

    def deriv(self, x):
        return _DERIV[self](np.asarray(x, dtype=float))


_VALUE = {
    Activation.identity: lambda x: x,
    Activation.relu: lambda x: np.maximum(x, 0.0),
    Activation.tanh: np.tanh,
    Activation.sine: np.sin,
    Activation.logistic: _logistic,
}

# relu derivative at exactly 0 is 0: the kink set has measure zero, but a
# fixed convention keeps outputs reproducible.
_DERIV = {
    Activation.identity: lambda x: np.ones_like(x),
    Activation.relu: lambda x: np.where(x > 0.0, 1.0, 0.0),
    Activation.tanh: lambda x: 1.0 - np.tanh(x) ** 2,
    Activation.sine: np.cos,
    Activation.logistic: lambda x: _logistic(x) * (1.0 - _logistic(x)),
}


class SystemForm(str, enum.Enum):
    pre_activation = "pre_activation"    # dx/dt = act(W x + b) - A x
    post_activation = "post_activation"  # dx/dt = -x + W act(x) + b
    discrete_map = "discrete_map"        # x(t+1) = act(W x(t) + b) - A x(t)


@dataclass(frozen=True)
class DynamicalSystem:
    """A square system defined by weight matrix W, leak matrix A, offset b.

    The `form` selects how the pieces combine (see SystemForm). For the
    post_activation form A is unused; the leak term is a plain -x.
    """

    n: int
    W: np.ndarray
    A: np.ndarray
    b: np.ndarray
    activation: Activation
    form: SystemForm

    def __post_init__(self):
        n = int(self.n)
        if n <= 0:
            raise ValueError(f"state dimension must be positive, got {n}")
        W = np.array(self.W, dtype=float)
        A = np.array(self.A, dtype=float)
        b = np.atleast_1d(np.array(self.b, dtype=float))
        if W.shape != (n, n):
            raise ValueError(f"W has shape {W.shape}, expected ({n}, {n})")
        if A.shape != (n, n):
            raise ValueError(f"A has shape {A.shape}, expected ({n}, {n})")
        if b.shape != (n,):
            raise ValueError(f"b has shape {b.shape}, expected ({n},)")
        for name, arr in (("W", W), ("A", A), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "activation", Activation(self.activation))
        object.__setattr__(self, "form", SystemForm(self.form))


def make_system(W, A, b, activation, form) -> DynamicalSystem:
    """Build a DynamicalSystem, inferring n from b."""
    b = np.atleast_1d(np.asarray(b, dtype=float))
    return DynamicalSystem(n=b.shape[0], W=W, A=A, b=b,
                           activation=activation, form=form)


def _check_state(sys: DynamicalSystem, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (sys.n,):
        raise ValueError(f"state has shape {x.shape}, expected ({sys.n},)")
    return x


def eval_field(sys: DynamicalSystem, x) -> np.ndarray:
    """Right-hand side at x (the next state, for discrete maps)."""
    return bound_field(sys)(_check_state(sys, x))


def bound_field(sys: DynamicalSystem):
    """eval_field with sys bound once, as a function of one checked state."""
    act = _VALUE[sys.activation]
    W, A, b = sys.W, sys.A, sys.b
    if sys.form is SystemForm.post_activation:
        return lambda x: -x + W @ act(x) + b
    return lambda x: act(W @ x + b) - A @ x


def bound_jacobian(sys: DynamicalSystem):
    """jacobian_analytic with sys bound once and no KinkWarning."""
    deriv = _DERIV[sys.activation]
    W, A, b = sys.W, sys.A, sys.b
    if sys.form is SystemForm.post_activation:
        eye = np.eye(sys.n)
        return lambda x: W * deriv(x) - eye
    return lambda x: deriv(W @ x + b)[:, None] * W - A


def _warn_on_kink(sys: DynamicalSystem, x: np.ndarray) -> None:
    """Warn the caller of a public Jacobian function when x sits on a relu kink."""
    if sys.activation is Activation.relu:
        arg = x if sys.form is SystemForm.post_activation else sys.W @ x + sys.b
        if np.any(arg == 0.0):
            warnings.warn("relu kink hit exactly; derivative 0 used at the kink",
                          KinkWarning, stacklevel=3)


def jacobian_analytic(sys: DynamicalSystem, x) -> np.ndarray:
    """Exact Jacobian of eval_field at x.

    Emits a KinkWarning (and applies the derivative-0 convention) when a
    relu argument coordinate is exactly zero.
    """
    x = _check_state(sys, x)
    _warn_on_kink(sys, x)
    return bound_jacobian(sys)(x)


def jacobian_fd(sys: DynamicalSystem, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of eval_field, column by column."""
    x = _check_state(sys, x)
    if h is None:
        h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    J = np.empty((sys.n, sys.n))
    for j in range(sys.n):
        e = np.zeros(sys.n)
        e[j] = h
        J[:, j] = (eval_field(sys, x + e) - eval_field(sys, x - e)) / (2.0 * h)
    return J


def system_to_dict(sys: DynamicalSystem) -> dict:
    return {
        "n": sys.n,
        "form": sys.form.value,
        "activation": sys.activation.value,
        "W": sys.W.tolist(),
        "A": sys.A.tolist(),
        "b": sys.b.tolist(),
    }


def _json_numbers(name: str, value) -> np.ndarray:
    """A JSON array of numbers as a float array; any other entry is a ValueError."""
    arr = np.array(value, dtype=object)
    if not all(type(v) in (int, float) for v in arr.flat):
        raise ValueError(f"{name} must be an array of numbers")
    try:
        return arr.astype(float)
    except OverflowError:
        raise ValueError(f"{name} has non-finite entries") from None


def system_from_dict(d: dict) -> DynamicalSystem:
    if not isinstance(d, dict):
        raise ValueError("system definition must be a JSON object")
    missing = {"n", "form", "activation", "W", "A", "b"} - set(d)
    if missing:
        raise ValueError(f"system definition missing keys: {sorted(missing)}")
    if type(d["n"]) is not int:
        raise ValueError(f"n must be an integer, got {d['n']!r}")
    W, A, b = (_json_numbers(name, d[name]) for name in ("W", "A", "b"))
    return DynamicalSystem(n=d["n"], W=W, A=A, b=b,
                           activation=d["activation"], form=d["form"])


def write_json(path, obj, indent: int | None = 2) -> None:
    """Write obj as JSON through a temporary file and an atomic rename.

    A reader never sees a half-written file: the path holds either its old
    content or the complete new document. NaN and infinity raise ValueError,
    because RFC 8259 JSON has no token for them.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(obj, indent=indent, allow_nan=False))
    os.replace(tmp, path)


def save_system(sys: DynamicalSystem, path) -> None:
    write_json(path, system_to_dict(sys))


def load_system(path) -> DynamicalSystem:
    return system_from_dict(json.loads(Path(path).read_text()))
