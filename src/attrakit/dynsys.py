"""Recurrent-style dynamical systems: activations, forms, fields, Jacobians."""

from __future__ import annotations

import contextlib
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
    "stacked_field",
    "stacked_jacobian",
    "jacobian_analytic",
    "jacobian_fd",
    "system_to_dict",
    "system_from_dict",
    "write_json",
    "open_replacing",
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
        return np.asarray(_DERIV[self](np.asarray(x, dtype=float)), dtype=float)


_VALUE = {
    Activation.identity: lambda x: x,
    Activation.relu: lambda x: np.maximum(x, 0.0),
    Activation.tanh: np.tanh,
    Activation.sine: np.sin,
    Activation.logistic: _logistic,
}

# relu derivative at exactly 0 is 0: the kink set has measure zero, but a
# fixed convention keeps outputs reproducible. It is a boolean mask: a
# product with it has the bits of the product with 1.0 or 0.0 (-0 and NaN
# too), without building that float array first.
_DERIV = {
    Activation.identity: lambda x: np.ones_like(x),
    Activation.relu: lambda x: x > 0.0,
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
    # ndarray.dot costs about half of what @ does per call at small n, with
    # the same bits for n >= 2; at n = 1 a product of -0 stays -0 (@ gives +0)
    W_dot, A_dot, b = sys.W.dot, sys.A.dot, sys.b
    if sys.form is SystemForm.post_activation:
        return lambda x: -x + W_dot(act(x)) + b
    return lambda x: act(W_dot(x) + b) - A_dot(x)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (k, n) stack, with np.linalg.norm's
    bits on that row (np.linalg.norm(axis=1) rounds differently)."""
    return np.sqrt(np.vecdot(rows, rows))


def _gemv(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M times each row of the (k, n) stack X, each row with the bits of M.dot(x).

    For n >= 2 it is one stacked matmul: numpy runs one gemv per row, where
    a gemm such as X @ M.T rounds differently. At n = 1 M.dot(x) is the one
    product, which the matmul would add to +0, turning a -0 into +0.
    """
    if M.shape == (1, 1):
        return X * M[0, 0]
    return np.matmul(M, X[:, :, None])[:, :, 0]


def stacked_field(sys: DynamicalSystem):
    """bound_field over a (k, n) stack of states, one row per state."""
    act = _VALUE[sys.activation]
    W, A, b = sys.W, sys.A, sys.b
    if sys.form is SystemForm.post_activation:
        return lambda X: -X + _gemv(W, act(X)) + b
    return lambda X: act(_gemv(W, X) + b) - _gemv(A, X)


def stacked_jacobian(sys: DynamicalSystem):
    """jacobian_analytic over a (k, n) stack of states, a (k, n, n) stack, no KinkWarning."""
    deriv = _DERIV[sys.activation]
    W, A, b = sys.W, sys.A, sys.b
    if sys.form is SystemForm.post_activation:
        eye = np.eye(sys.n)
        return lambda X: W * deriv(X)[:, None, :] - eye
    return lambda X: deriv(_gemv(W, X) + b)[:, :, None] * W - A


def _warn_on_kink(sys: DynamicalSystem, X: np.ndarray, stacklevel: int = 3) -> None:
    """Warn once for each state of the (k, n) stack X that sits on a relu kink.

    stacklevel is warnings.warn's, counted from here: the default names the
    caller of the public Jacobian function that calls this one.
    """
    if sys.activation is Activation.relu:
        arg = X if sys.form is SystemForm.post_activation else _gemv(sys.W, X) + sys.b
        for _ in range(np.count_nonzero(np.any(arg == 0.0, axis=1))):
            warnings.warn("relu kink hit exactly; derivative 0 used at the kink",
                          KinkWarning, stacklevel=stacklevel)


def jacobian_analytic(sys: DynamicalSystem, x) -> np.ndarray:
    """Exact Jacobian of eval_field at x.

    Emits a KinkWarning (and applies the derivative-0 convention) when a
    relu argument coordinate is exactly zero.
    """
    X = _check_state(sys, x)[None]
    _warn_on_kink(sys, X)
    return stacked_jacobian(sys)(X)[0]


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


def write_json(path, obj, indent: int | None = 2, default=None) -> None:
    """Write obj as JSON through a temporary file and an atomic rename.

    A reader never sees a half-written file: the path holds either its old
    content or the complete new document, and the temporary file is
    removed if writing fails. An indented document is streamed into the
    temporary file rather than built in memory first. A compact one
    (indent=None) is built by json's C encoder, which json.dump never uses,
    in about half the time, and written in one call: the same text. NaN and
    infinity raise ValueError, because RFC 8259 JSON has no token for them.
    `default` is json's hook for objects it cannot encode: a caller can
    pass a list of its own objects and a converter, so each one's JSON form
    is built only when the encoder reaches it, instead of the whole list's
    at once.
    """
    with open_replacing(path, "w") as fh:
        if indent is None:
            fh.write(json.dumps(obj, allow_nan=False, default=default))
        else:
            json.dump(obj, fh, indent=indent, allow_nan=False, default=default)


@contextlib.contextmanager
def open_replacing(path, mode: str, newline=None):
    """Open a temporary file beside path for writing, to take path's place.

    When the block ends, the file is renamed over path (atomically, on one
    filesystem); when the block raises, it is removed and path is left as
    it was. mode and newline are open's: newline="" writes a CSV's CRLF
    rows as they are on every platform.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_system(sys: DynamicalSystem, path) -> None:
    write_json(path, system_to_dict(sys))


def load_system(path) -> DynamicalSystem:
    return system_from_dict(json.loads(Path(path).read_text()))
