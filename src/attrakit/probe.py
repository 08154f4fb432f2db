"""Desk-scale classifier probe with exact input-output Jacobians.

A small fully connected net trained by plain minibatch SGD (momentum plus
an additive weight-decay gradient term) on cross-entropy. During training,
the Jacobian of the logits with respect to the input is recorded for a set
of probe samples; the dispersion (cv) of its singular values tracks how
strongly the learned map stratifies around each sample.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _forked
from .dynsys import _DERIV, _VALUE, Activation, open_replacing, write_json
from .spectral import _row_cv

__all__ = [
    "TRAIN_CLASS",
    "HELD_OUT_CLASS",
    "NATURAL_NOISE",
    "RANDOM_NOISE",
    "Dataset",
    "TrainConfig",
    "TinyNet",
    "ProbeSample",
    "CvRecord",
    "CvTrace",
    "GroupCvStats",
    "IdxFormatError",
    "TrainingDivergedError",
    "load_idx",
    "synth_blobs",
    "exclude_label",
    "make_probe_samples",
    "default_checkpoint_schedule",
    "train",
    "classifier_jacobian",
    "loss_and_gradients",
    "accuracy",
    "stratification_study",
    "write_group_stats_csv",
    "write_group_samples_csv",
    "save_net",
    "load_net",
]

TRAIN_CLASS = "train_class"
HELD_OUT_CLASS = "held_out_class"
NATURAL_NOISE = "natural_noise"
RANDOM_NOISE = "random_noise"

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# rows per block of the accuracy pass, the stratification spectra and the
# CSV writer: enough to amortise each numpy or write call, and few enough
# that glibc serves a block's temporaries from its heap block after block
# (at 256 rows, the probe's peak RSS moved by up to 0.8 MiB with layout)
_BLOCK_ROWS = 64

_FIRST_EPOCH_EVERY = 10  # batches between default_checkpoint_schedule's first checkpoints


class IdxFormatError(ValueError):
    """The file does not follow the IDX binary layout."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the learning rate is probably too high."""

    def __init__(self, batch: int, loss: float, learning_rate: float):
        self.batch = batch
        self.loss = loss
        self.learning_rate = learning_rate
        super().__init__(
            f"non-finite loss {loss} at batch {batch} (lr={learning_rate})")


@dataclass(frozen=True)
class Dataset:
    """Inputs scaled to [0, 1] with integer labels in [0, n_classes)."""

    inputs: np.ndarray   # (N, d)
    labels: np.ndarray   # (N,)
    n_classes: int

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        labels = np.asarray(self.labels, dtype=int).reshape(-1)
        if inputs.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if labels.shape[0] != inputs.shape[0]:
            raise ValueError("labels length must match inputs")
        if self.n_classes < 1:
            raise ValueError("n_classes must be positive")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.n_classes:
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), "
                f"got range [{labels.min()}, {labels.max()}]")
        # phrased so that a NaN input fails too
        if not (inputs.min() >= 0.0 and inputs.max() <= 1.0):
            raise ValueError("inputs must be finite and scaled to [0, 1]")
        for arr in (inputs, labels):
            arr.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    batch_size: int = 32
    epochs: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")


class TinyNet:
    """Fully connected net mapping inputs to raw logits (no softmax)."""

    def __init__(self, layer_dims, weights, biases,
                 hidden_activation: Activation = Activation.relu):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        if len(self.layer_dims) < 2:
            raise ValueError("need at least input and output dims")
        self.weights = [np.asarray(W, dtype=float) for W in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        self.hidden_activation = Activation(hidden_activation)
        if len(self.weights) != len(self.layer_dims) - 1:
            raise ValueError("one weight matrix per layer transition required")
        if len(self.biases) != len(self.weights):
            raise ValueError(f"{len(self.biases)} bias vectors for "
                             f"{len(self.weights)} weight matrices")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            want = (self.layer_dims[k + 1], self.layer_dims[k])
            if W.shape != want:
                raise ValueError(f"layer {k} weights have shape {W.shape}, expected {want}")
            if b.shape != (want[0],):
                raise ValueError(f"layer {k} bias has shape {b.shape}, expected ({want[0]},)")

    @classmethod
    def init(cls, layer_dims, seed: int = 0,
             hidden_activation: Activation = Activation.relu) -> "TinyNet":
        rng = np.random.default_rng(seed)
        dims = tuple(int(d) for d in layer_dims)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases, hidden_activation)

    def copy(self) -> "TinyNet":
        return TinyNet(self.layer_dims, [W.copy() for W in self.weights],
                       [b.copy() for b in self.biases], self.hidden_activation)

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def param_count(self) -> int:
        return sum(W.size for W in self.weights) + sum(b.size for b in self.biases)

    def _forward_cached(self, X: np.ndarray):
        """Pre-activations and layer inputs for one 2D batch."""
        act = _VALUE[self.hidden_activation]
        pre = []
        layer_inputs = [X]
        a = X
        last = len(self.weights) - 1
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W.T
            z += b
            pre.append(z)
            a = z if k == last else act(z)
            if k != last:
                layer_inputs.append(a)
        return pre, layer_inputs

    def forward(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x[None, :] if single else x
        if X.shape[1] != self.layer_dims[0]:
            raise ValueError(
                f"input dim {X.shape[1]} does not match net input {self.layer_dims[0]}")
        pre, _ = self._forward_cached(X)
        logits = pre[-1]
        return logits[0] if single else logits


def _layer_views(net: TinyNet, flat: np.ndarray) -> tuple[list, list]:
    """Per-layer weight and bias views of one flat buffer of net.param_count values.

    The layers lie in order, each weight matrix (row-major) before its bias.
    """
    weights, biases, lo = [], [], 0
    for W, b in zip(net.weights, net.biases):
        weights.append(flat[lo:lo + W.size].reshape(W.shape))
        lo += W.size
        biases.append(flat[lo:lo + b.size])
        lo += b.size
    return weights, biases


def _loss_and_gradients_into(net: TinyNet, X: np.ndarray, y: np.ndarray, rows: np.ndarray,
                             grad_w: list, grad_b: list) -> float:
    """Mean cross-entropy of one batch; its gradients are written into grad_w, grad_b.

    rows is np.arange(B) for the batch's B rows. The reductions are the
    ufuncs' own: the bits of ndarray.max, .sum and .mean without their
    Python wrappers.
    """
    pre, layer_inputs = net._forward_cached(X)
    logits = pre[-1]
    B = X.shape[0]
    shifted = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    # one exp serves the loss and the softmax
    e = np.exp(shifted)
    total = np.add.reduce(e, axis=1, keepdims=True)
    # -(s / B) and (-s) / B are the same bits: the mean's, negated
    loss = -float(np.add.reduce(shifted[rows, y] - np.log(total[:, 0]))) / B

    dz = e
    dz /= total
    dz[rows, y] -= 1.0
    dz /= B
    deriv = _DERIV[net.hidden_activation]
    for k in range(len(net.weights) - 1, -1, -1):
        np.matmul(dz.T, layer_inputs[k], out=grad_w[k])
        np.add.reduce(dz, axis=0, out=grad_b[k])
        if k > 0:
            dz = dz @ net.weights[k]
            dz *= deriv(pre[k - 1])
    return loss


def loss_and_gradients(net: TinyNet, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and exact gradients for every weight and bias."""
    grad_w, grad_b = _layer_views(net, np.empty(net.param_count))
    loss = _loss_and_gradients_into(net, X, y, np.arange(X.shape[0]), grad_w, grad_b)
    return loss, grad_w, grad_b


def classifier_jacobian(net: TinyNet, x) -> np.ndarray:
    """Exact Jacobian of the logits with respect to one input vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.layer_dims[0],):
        raise ValueError(
            f"input has shape {x.shape}, expected ({net.layer_dims[0]},)")
    pre, _ = net._forward_cached(x[None, :])
    J = net.weights[0].copy()
    for k in range(1, len(net.weights)):
        d = net.hidden_activation.deriv(pre[k - 1][0])
        J = net.weights[k] @ (d[:, None] * J)
    return J


def accuracy(net: TinyNet, data: Dataset) -> float:
    """Share of samples whose largest logit is their label.

    The rows are forwarded a block of _BLOCK_ROWS at a time, so no
    activations of the whole dataset are built.
    """
    hits = 0
    for lo in range(0, data.size, _BLOCK_ROWS):
        logits = net.forward(data.inputs[lo:lo + _BLOCK_ROWS])
        hits += int(np.count_nonzero(logits.argmax(axis=1) == data.labels[lo:lo + _BLOCK_ROWS]))
    return hits / data.size


def load_idx(images_path, labels_path, max_items: int | None = None) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset (pixels / 255)."""
    images = _parse_idx(Path(images_path), IDX_IMAGE_MAGIC, "image")
    labels = _parse_idx(Path(labels_path), IDX_LABEL_MAGIC, "label")
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(
            f"image count {images.shape[0]} != label count {labels.shape[0]}")
    if max_items is not None:
        if max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        images = images[:max_items]
        labels = labels[:max_items]
    inputs = images.reshape(images.shape[0], -1).astype(float) / 255.0
    return Dataset(inputs=inputs, labels=labels.astype(int),
                   n_classes=int(labels.max()) + 1)


def _parse_idx(path: Path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array of an IDX file of `kind`s; magic's last byte is its number of dimensions."""
    data = path.read_bytes()
    found = int.from_bytes(data[:4], "big")
    if len(data) >= 4 and found != magic:
        raise IdxFormatError(
            f"{path}: expected {kind} magic 0x{magic:08x}, found 0x{found:08x}")
    ndim = magic & 0xFF
    head = 4 + 4 * ndim
    if len(data) < head:
        raise IdxFormatError(f"{path}: header truncated ({len(data)} bytes)")
    shape = struct.unpack(f">{ndim}I", data[4:head])
    size = math.prod(shape)
    if len(data) < head + size:
        raise IdxFormatError(f"{path}: truncated, need {head + size} bytes for {shape[0]} "
                             f"{kind}s, have {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, count=size, offset=head).reshape(shape)


def synth_blobs(C: int, d: int, per_class: int, separation: float,
                seed: int = 0) -> Dataset:
    """Gaussian clusters at scaled basis vertices, min-max mapped to [0, 1]."""
    if C < 2:
        raise ValueError(f"need C >= 2 classes, got {C}")
    if d < C:
        raise ValueError(f"need d >= C for vertex placement, got d={d}, C={C}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if not (np.isfinite(separation) and separation >= 0):
        raise ValueError(f"separation must be a finite number >= 0, got {separation}")
    rng = np.random.default_rng(seed)
    centers = separation * np.eye(C, d)
    labels = np.repeat(np.arange(C), per_class)
    raw = centers[labels] + rng.standard_normal((labels.shape[0], d))
    lo, hi = raw.min(), raw.max()
    span = hi - lo if hi > lo else 1.0
    return Dataset(inputs=(raw - lo) / span, labels=labels, n_classes=C)


def exclude_label(data: Dataset, label: int) -> tuple[Dataset, Dataset]:
    """Split out one class: (remaining training data, held-out class data)."""
    mask = data.labels == label
    if mask.all() or not mask.any():
        raise ValueError(f"label {label} must be present but not exhaustive")
    keep = Dataset(inputs=data.inputs[~mask], labels=data.labels[~mask],
                   n_classes=data.n_classes)
    held = Dataset(inputs=data.inputs[mask], labels=data.labels[mask],
                   n_classes=data.n_classes)
    return keep, held


@dataclass(frozen=True)
class ProbeSample:
    sample_id: str
    category: str
    x: np.ndarray


def make_probe_samples(train_data: Dataset, n_per_category: int = 8,
                       seed: int = 0, held_out: np.ndarray | None = None,
                       natural: np.ndarray | None = None) -> list[ProbeSample]:
    """Fixed probe inputs per category, tracked across training checkpoints.

    held_out and natural are optional input matrices for the unseen-class
    and natural-noise categories; random-noise probes are uniform pixels.
    """
    rng = np.random.default_rng(seed)
    probes: list[ProbeSample] = []

    def pick(inputs: np.ndarray, category: str):
        inputs = np.atleast_2d(inputs)
        idx = rng.choice(inputs.shape[0], size=min(n_per_category, inputs.shape[0]),
                         replace=False)
        for j, i in enumerate(idx):
            probes.append(ProbeSample(f"{category}/{j}", category, inputs[i].copy()))

    pick(train_data.inputs, TRAIN_CLASS)
    if held_out is not None:
        pick(held_out, HELD_OUT_CLASS)
    if natural is not None:
        pick(natural, NATURAL_NOISE)
    for j in range(n_per_category):
        x = rng.uniform(0.0, 1.0, size=train_data.dim)
        probes.append(ProbeSample(f"{RANDOM_NOISE}/{j}", RANDOM_NOISE, x))
    return probes


@dataclass(frozen=True)
class CvRecord:
    checkpoint: int
    sample_id: str
    category: str
    cv: float
    singular_values: np.ndarray


@dataclass(frozen=True)
class CvTrace:
    """The probe spectra of one training run, as one table.

    Row i holds checkpoint checkpoint_ids[i] and column j probe j, named by
    sample_ids[j] and categories[j]: its cv in cvs[i, j] and its k
    singular values in singular_values[i, j]. The rows are in the order
    they were taken, ascending in train's traces.
    """

    checkpoint_ids: np.ndarray   # (C,) int
    sample_ids: tuple[str, ...]  # (S,)
    categories: tuple[str, ...]  # (S,)
    cvs: np.ndarray              # (C, S)
    singular_values: np.ndarray  # (C, S, k)

    def __post_init__(self):
        ids = np.asarray(self.checkpoint_ids, dtype=np.int64)
        cvs = np.asarray(self.cvs, dtype=float)
        svs = np.asarray(self.singular_values, dtype=float)
        C, S = ids.size, len(self.sample_ids)
        if ids.ndim != 1 or len(self.categories) != S or cvs.shape != (C, S) \
                or svs.ndim != 3 or svs.shape[:2] != (C, S):
            raise ValueError(
                f"a trace of {C} checkpoints and {S} samples needs ({C}, {S}) cvs and "
                f"({C}, {S}, k) singular values, got {cvs.shape} and {svs.shape}")
        object.__setattr__(self, "checkpoint_ids", ids)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "cvs", cvs)
        object.__setattr__(self, "singular_values", svs)

    @property
    def records(self) -> list[CvRecord]:
        """One CvRecord per cell, row by row; each holds a view of its singular values."""
        return [CvRecord(checkpoint, sample_id, category, cv, s)
                for checkpoint, cv_row, sv_row in zip(self.checkpoint_ids.tolist(),
                                                      self.cvs.tolist(), self.singular_values)
                for sample_id, category, cv, s in zip(self.sample_ids, self.categories,
                                                      cv_row, sv_row)]

    def checkpoints(self) -> list[int]:
        """The checkpoints that hold a record, ascending."""
        return sorted(set(self.checkpoint_ids.tolist())) if self.sample_ids else []

    def final_checkpoint(self) -> int:
        return max(self.checkpoints())

    def mean_cv(self, category: str, checkpoint: int) -> float:
        rows = np.flatnonzero(self.checkpoint_ids == checkpoint)
        cols = [j for j, c in enumerate(self.categories) if c == category]
        if not (rows.size and cols):
            raise ValueError(f"no records for {category!r} at checkpoint {checkpoint}")
        # in record order, as one 1-D array: the bits of np.mean over the records' cvs
        return float(np.mean(self.cvs[np.ix_(rows, cols)].ravel()))

    def series(self, category: str) -> tuple[np.ndarray, np.ndarray]:
        cps = self.checkpoints()
        return (np.array(cps),
                np.array([self.mean_cv(category, cp) for cp in cps]))

    def to_csv(self, path) -> None:
        """Write `checkpoint,sample_id,category,cv,sv_1,...,sv_4` rows, csv.writer's CRLF rows.

        Each checkpoint's rows are formatted with one `%`: the samples' id
        and category cells (after _csv_cell) are fixed text in the format,
        the cv and the first four singular values follow as `%.17g` (a
        bit-exact round trip), then empty cells where k < 4.
        """
        k = min(self.singular_values.shape[2], 4)
        tail = ",%.17g" * (k + 1) + "," * (4 - k) + "\r\n"
        block_fmt = "".join(
            "%d," + f"{_csv_cell(sample_id)},{_csv_cell(category)}".replace("%", "%%") + tail
            for sample_id, category in zip(self.sample_ids, self.categories))
        # a block's values, row by row: the checkpoint (a whole float64 as
        # %d prints it), the cv, then the singular values
        block = np.empty((len(self.sample_ids), k + 2))
        with open_replacing(path, "w", newline="") as fh:
            fh.write("checkpoint,sample_id,category,cv,sv_1,sv_2,sv_3,sv_4\r\n")
            for checkpoint, cvs, svs in zip(self.checkpoint_ids, self.cvs,
                                            self.singular_values):
                block[:, 0] = checkpoint
                block[:, 1] = cvs
                block[:, 2:] = svs[:, :k]
                fh.write(block_fmt % tuple(block.ravel().tolist()))


def _csv_cell(value):
    """A lead cell as csv.writer's minimal quoting writes it: text quoted only
    when it holds a comma, quote or line break, any other value as it is."""
    if isinstance(value, str) and any(c in value for c in ',"\r\n'):
        return '"' + value.replace('"', '""') + '"'
    return value


def _write_csv(path, header: list[str], lead_fmt: str, rows) -> None:
    """Write header and rows to a new file at path as csv.writer's CRLF rows.

    Each row is a pair (leads, doubles). The lead cells are formatted by
    lead_fmt (`%d` or `%s` each), after _csv_cell; the doubles follow as
    `%.17g` (a bit-exact round trip), then empty cells up to the header's
    width. Each block of _BLOCK_ROWS rows is formatted with one `%`.
    """
    width = len(header) - lead_fmt.count("%")
    row_fmt: dict[int, str] = {}  # one per number of doubles
    cell = functools.cache(_csv_cell)
    rows = iter(rows)
    with open_replacing(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        while block := list(itertools.islice(rows, _BLOCK_ROWS)):
            fmt, values = [], []
            for leads, doubles in block:
                k = len(doubles)
                if k not in row_fmt:
                    row_fmt[k] = lead_fmt + ",%.17g" * k + "," * (width - k) + "\r\n"
                fmt.append(row_fmt[k])
                values += map(cell, leads)
                values += doubles
            fh.write("".join(fmt) % tuple(values))


def default_checkpoint_schedule(n_batches_per_epoch: int, epochs: int) -> list[int]:
    """Checkpoint ids (batches completed): dense early, per-epoch later."""
    points = {0}
    points.update(range(_FIRST_EPOCH_EVERY, n_batches_per_epoch + 1, _FIRST_EPOCH_EVERY))
    points.update(e * n_batches_per_epoch for e in range(1, epochs + 1))
    return sorted(points)


def _logit_spectra(net: TinyNet, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logit-Jacobian singular values (S, k) and their cv (S,) at each row of X.

    The Jacobians are accumulated in reverse mode, from the output layer
    back to the input, for all rows at once. An all-zero spectrum has cv 0.
    """
    pre, _ = net._forward_cached(X)
    deriv = _DERIV[net.hidden_activation]
    J = np.broadcast_to(net.weights[-1], (X.shape[0],) + net.weights[-1].shape)
    for k in range(len(net.weights) - 1, 0, -1):
        # in place once J owns its stack, so no second stack is alive beside it
        d = deriv(pre[k - 1])[:, None, :]
        J = np.multiply(J, d, out=J if J.flags.writeable else None) @ net.weights[k - 1]
    s = np.linalg.svd(J, compute_uv=False)
    return s, _row_cv(s)


def _sgd(net: TinyNet, data: Dataset, cfg: TrainConfig, marks: set[int], at_mark) -> TinyNet:
    """The trained copy of net; at_mark(checkpoint, net, params) at each of marks.

    params is the flat buffer that net's weights and biases are views of.
    """
    # every weight and bias lives in one flat buffer (a copy, so the input
    # net is left untouched), and the net's arrays are views of it; the
    # update is then a few calls on the whole buffer
    params = np.concatenate([a.ravel() for layer in zip(net.weights, net.biases)
                             for a in layer])
    net = TinyNet(net.layer_dims, *_layer_views(net, params), net.hidden_activation)
    grad = np.empty_like(params)
    grad_w, grad_b = _layer_views(net, grad)
    vel = np.zeros_like(params)
    step = np.empty_like(params)
    lr, mom, wd = cfg.learning_rate, cfg.momentum, cfg.weight_decay
    rng = np.random.default_rng(cfg.seed)
    rows = np.arange(cfg.batch_size)  # a batch's row index; the last batch's is a slice
    done = 0
    if 0 in marks:
        at_mark(0, net, params)
    # a diverging batch overflows or turns NaN until its loss is checked
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(data.size)
            for start in range(0, data.size, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                loss = _loss_and_gradients_into(net, data.inputs[idx], data.labels[idx],
                                                rows[:idx.shape[0]], grad_w, grad_b)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(done, loss, lr)
                # v = m·v + (g + wd·W), then W -= lr·v: one rounding per product
                # and sum of each element, so the buffer layout changes no bit
                np.multiply(params, wd, out=step)
                step += grad
                vel *= mom
                vel += step
                np.multiply(vel, lr, out=step)
                params -= step
                done += 1
                if done in marks:
                    at_mark(done, net, params)
    return net


def train(net: TinyNet, data: Dataset, cfg: TrainConfig,
          probes: list[ProbeSample] = ()) -> tuple[TinyNet, CvTrace]:
    """Minibatch SGD with momentum and additive weight decay.

    The input net is not modified. Shuffling is derived from cfg.seed, so
    two runs with identical arguments produce bit-identical weights. At
    each checkpoint of default_checkpoint_schedule (counted in completed
    batches) the probe samples' Jacobian spectra are recorded.

    With probes, the training runs with numpy's OpenBLAS on one thread,
    the caller's count back on return, so the records and the net are the
    same bits on any number of CPUs. There, given an OpenBLAS it can set,
    the spectra are taken in a fed _forked.Child, sent each checkpoint's
    weights as the training goes on; where it is not forked, they are
    taken here, and if it fails, the training runs again here to take
    them. Without probes, the training runs on the caller's thread count.
    """
    if data.dim != net.layer_dims[0]:
        raise ValueError(
            f"data dim {data.dim} does not match net input {net.layer_dims[0]}")
    n_batches = int(np.ceil(data.size / cfg.batch_size))
    marks = set(default_checkpoint_schedule(n_batches, cfg.epochs))
    # the reshape keeps an empty probe list a (0, d) stack
    probe_x = np.array([p.x for p in probes], dtype=float).reshape(len(probes), data.dim)

    def record(trained, out):
        # a mark's float64 row: the (S, k) singular values, then the (S,) cvs
        svs, cvs = _logit_spectra(trained, probe_x)
        out.write(svs.tobytes())
        out.write(cvs.tobytes())

    def take_spectra(src, out):
        while snapshot := src.read(net.param_count * 8):
            views = _layer_views(net, np.frombuffer(snapshot))
            record(TinyNet(net.layer_dims, *views, net.hidden_activation), out)

    rows = io.BytesIO()
    # a child forked in the block runs on the one thread too
    with _forked.one_blas_thread() if probes else contextlib.nullcontext(False) as pinned:
        joined = False
        if pinned:
            with _forked.Child(take_spectra, fed=True) as child:
                if child.feed is not None:
                    trained = _sgd(net, data, cfg, marks,
                                   lambda checkpoint, now, params: child.send(params))
                joined = child.join(rows)
        if not joined:
            trained = _sgd(net, data, cfg, marks,
                           lambda checkpoint, now, params: record(now, rows))
    S, k = len(probes), min(net.layer_dims[0], net.layer_dims[-1])
    # a view of the rows' bytes, writable as the spectra are where they are taken
    table = np.frombuffer(rows.getbuffer()).reshape(len(marks), S * (k + 1))
    return trained, CvTrace(sorted(marks), tuple(p.sample_id for p in probes),
                            tuple(p.category for p in probes),
                            table[:, S * k:], table[:, :S * k].reshape(len(marks), S, k))


@dataclass(frozen=True)
class GroupCvStats:
    group: str
    cvs: np.ndarray
    singular_values: list[np.ndarray]

    @property
    def mean_cv(self) -> float:
        return float(self.cvs.mean())

    @property
    def median_cv(self) -> float:
        # np.median's bits: the mean of the middle one or two sorted values,
        # and a NaN (sorted last) as the result when there is one; without
        # np.median's NaN check, which imports numpy.ma
        s = np.sort(self.cvs)
        middle = s[(s.shape[0] - 1) // 2:s.shape[0] // 2 + 1].mean()
        return float(s[-1] if s.size and math.isnan(s[-1]) else middle)


def stratification_study(net: TinyNet, groups: dict[str, np.ndarray],
                         samples_per_group: int = 50) -> list[GroupCvStats]:
    """Per-group cv statistics of the logits-Jacobian singular values."""
    if samples_per_group < 1:
        raise ValueError(f"samples_per_group must be >= 1, got {samples_per_group}")
    out = []
    for name, samples in groups.items():
        samples = np.asarray(samples, dtype=float)
        # counted before atleast_2d, which turns an empty 1-D group into one empty row
        if samples.size == 0:
            warnings.warn(f"group {name!r} is empty, skipped", stacklevel=2)
            continue
        X = np.atleast_2d(samples)[:samples_per_group]
        # a block of rows at a time, so the Jacobian stacks stay small;
        # each row's spectrum is the same bits in any block
        spectra = [_logit_spectra(net, X[lo:lo + _BLOCK_ROWS])
                   for lo in range(0, X.shape[0], _BLOCK_ROWS)]
        out.append(GroupCvStats(group=name, cvs=np.concatenate([c for _, c in spectra]),
                                singular_values=[s for svs, _ in spectra for s in svs]))
    return out


def write_group_stats_csv(stats: list[GroupCvStats], path) -> None:
    _write_csv(path, ["group", "n_samples", "mean_cv", "median_cv"], "%s,%d",
               (((s.group, s.cvs.shape[0]), (s.mean_cv, s.median_cv)) for s in stats))


def write_group_samples_csv(stats: list[GroupCvStats], path) -> None:
    """Raw per-sample singular values, one row per probed sample."""
    if not stats:
        raise ValueError("no group statistics to write")
    k = max(len(s.singular_values[0]) for s in stats)
    _write_csv(path, ["group", "sample_index", "cv"] + [f"sv_{j + 1}" for j in range(k)],
               "%s,%d", (((s.group, i), [cv, *svs.tolist()])
                         for s in stats
                         for i, (cv, svs) in enumerate(zip(s.cvs.tolist(), s.singular_values))))


def save_net(net: TinyNet, path) -> None:
    payload = {
        "layer_dims": list(net.layer_dims),
        "hidden_activation": net.hidden_activation.value,
        "weights": [W.tolist() for W in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }
    write_json(path, payload, indent=None)


def load_net(path) -> TinyNet:
    d = json.loads(Path(path).read_text())
    return TinyNet(d["layer_dims"], d["weights"], d["biases"],
                   Activation(d["hidden_activation"]))
