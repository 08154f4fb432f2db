"""Desk-scale classifier probe with exact input-output Jacobians.

A small fully connected net trained by plain minibatch SGD (momentum plus
an additive weight-decay gradient term) on cross-entropy. During training,
the Jacobian of the logits with respect to the input is recorded for a set
of probe samples; the dispersion (cv) of its singular values tracks how
strongly the learned map stratifies around each sample.
"""

from __future__ import annotations

import csv
import json
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynsys import Activation, write_json

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
        if inputs.min() < 0.0 or inputs.max() > 1.0:
            raise ValueError("inputs must be scaled to [0, 1]")
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
        act = self.hidden_activation
        pre = []
        layer_inputs = [X]
        a = X
        last = len(self.weights) - 1
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ W.T + b
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_gradients(net: TinyNet, X: np.ndarray, y: np.ndarray):
    """Mean cross-entropy and exact gradients for every weight and bias."""
    pre, layer_inputs = net._forward_cached(X)
    logits = pre[-1]
    B = X.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(B), y].mean())

    dz = _softmax(logits)
    dz[np.arange(B), y] -= 1.0
    dz /= B
    grad_w = [None] * len(net.weights)
    grad_b = [None] * len(net.biases)
    for k in range(len(net.weights) - 1, -1, -1):
        grad_w[k] = dz.T @ layer_inputs[k]
        grad_b[k] = dz.sum(axis=0)
        if k > 0:
            dz = (dz @ net.weights[k]) * net.hidden_activation.deriv(pre[k - 1])
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
    logits = net.forward(data.inputs)
    return float((logits.argmax(axis=1) == data.labels).mean())


def load_idx(images_path, labels_path, max_items: int | None = None) -> Dataset:
    """Parse an IDX image/label file pair into a Dataset (pixels / 255)."""
    images = _parse_idx_images(Path(images_path))
    labels = _parse_idx_labels(Path(labels_path))
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


def _parse_idx_images(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: header truncated ({len(data)} bytes)")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: expected image magic 0x{IDX_IMAGE_MAGIC:08x}, found 0x{magic:08x}")
    if len(data) < 16:
        raise IdxFormatError(f"{path}: header truncated ({len(data)} bytes)")
    count, rows, cols = struct.unpack(">III", data[4:16])
    need = 16 + count * rows * cols
    if len(data) < need:
        raise IdxFormatError(
            f"{path}: truncated, need {need} bytes for {count} images, have {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows, cols)


def _parse_idx_labels(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if len(data) < 4:
        raise IdxFormatError(f"{path}: header truncated ({len(data)} bytes)")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != IDX_LABEL_MAGIC:
        raise IdxFormatError(
            f"{path}: expected label magic 0x{IDX_LABEL_MAGIC:08x}, found 0x{magic:08x}")
    if len(data) < 8:
        raise IdxFormatError(f"{path}: header truncated ({len(data)} bytes)")
    count = struct.unpack(">I", data[4:8])[0]
    if len(data) < 8 + count:
        raise IdxFormatError(
            f"{path}: truncated, need {8 + count} bytes for {count} labels, have {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=8)


def synth_blobs(C: int, d: int, per_class: int, separation: float,
                seed: int = 0) -> Dataset:
    """Gaussian clusters at scaled basis vertices, min-max mapped to [0, 1]."""
    if C < 2:
        raise ValueError(f"need C >= 2 classes, got {C}")
    if d < C:
        raise ValueError(f"need d >= C for vertex placement, got d={d}, C={C}")
    if per_class < 1:
        raise ValueError(f"per_class must be >= 1, got {per_class}")
    if separation < 0:
        raise ValueError(f"separation must be non-negative, got {separation}")
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


@dataclass
class CvTrace:
    records: list[CvRecord] = field(default_factory=list)

    def checkpoints(self) -> list[int]:
        return sorted({r.checkpoint for r in self.records})

    def final_checkpoint(self) -> int:
        return max(r.checkpoint for r in self.records)

    def mean_cv(self, category: str, checkpoint: int) -> float:
        cvs = [r.cv for r in self.records
               if r.category == category and r.checkpoint == checkpoint]
        if not cvs:
            raise ValueError(f"no records for {category!r} at checkpoint {checkpoint}")
        return float(np.mean(cvs))

    def series(self, category: str) -> tuple[np.ndarray, np.ndarray]:
        cps = self.checkpoints()
        return (np.array(cps),
                np.array([self.mean_cv(category, cp) for cp in cps]))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["checkpoint", "sample_id", "category", "cv",
                             "sv_1", "sv_2", "sv_3", "sv_4"])
            for r in self.records:
                svs = [f"{v:.17g}" for v in r.singular_values[:4]]
                svs += [""] * (4 - len(svs))
                writer.writerow([r.checkpoint, r.sample_id, r.category,
                                 f"{r.cv:.17g}"] + svs)


def default_checkpoint_schedule(n_batches_per_epoch: int, epochs: int,
                                first_epoch_every: int = 10) -> list[int]:
    """Checkpoint ids (batches completed): dense early, per-epoch later."""
    points = {0}
    points.update(range(first_epoch_every, n_batches_per_epoch + 1, first_epoch_every))
    points.update(e * n_batches_per_epoch for e in range(1, epochs + 1))
    return sorted(points)


def _logit_spectra(net: TinyNet, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logit-Jacobian singular values (S, k) and their cv (S,) at each row of X.

    The Jacobians are accumulated in reverse mode, from the output layer
    back to the input, for all rows at once. An all-zero spectrum has cv 0.
    """
    pre, _ = net._forward_cached(X)
    J = np.broadcast_to(net.weights[-1], (X.shape[0],) + net.weights[-1].shape)
    for k in range(len(net.weights) - 1, 0, -1):
        J = (J * net.hidden_activation.deriv(pre[k - 1])[:, None, :]) @ net.weights[k - 1]
    s = np.linalg.svd(J, compute_uv=False)
    mean = s.mean(axis=1)
    cv = np.divide(s.var(axis=1), mean**2, out=np.zeros_like(mean), where=mean > 0.0)
    return s, cv


def train(net: TinyNet, data: Dataset, cfg: TrainConfig,
          probes: list[ProbeSample] = (), schedule: list[int] | None = None,
          ) -> tuple[TinyNet, CvTrace]:
    """Minibatch SGD with momentum and additive weight decay.

    The input net is not modified. Shuffling is derived from cfg.seed, so
    two runs with identical arguments produce bit-identical weights. At
    each scheduled checkpoint (counted in completed batches) the probe
    samples' Jacobian spectra are recorded.
    """
    if data.dim != net.layer_dims[0]:
        raise ValueError(
            f"data dim {data.dim} does not match net input {net.layer_dims[0]}")
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    n_batches = int(np.ceil(data.size / cfg.batch_size))
    if schedule is None:
        schedule = default_checkpoint_schedule(n_batches, cfg.epochs)
    total = n_batches * cfg.epochs
    marks = {cp for cp in schedule if 0 <= cp <= total} | {total}

    trace = CvTrace()
    # the reshape keeps an empty probe list a (0, d) stack
    probe_x = np.array([p.x for p in probes], dtype=float).reshape(len(probes), data.dim)

    def record(checkpoint: int):
        svs, cvs = _logit_spectra(net, probe_x)
        trace.records += [CvRecord(checkpoint, p.sample_id, p.category, float(cv), s)
                          for p, cv, s in zip(probes, cvs, svs)]

    vel_w = [np.zeros_like(W) for W in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    done = 0
    if 0 in marks:
        record(0)
    for _ in range(cfg.epochs):
        order = rng.permutation(data.size)
        for start in range(0, data.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad_w, grad_b = loss_and_gradients(
                net, data.inputs[idx], data.labels[idx])
            if not np.isfinite(loss):
                raise TrainingDivergedError(done, loss, cfg.learning_rate)
            for k in range(len(net.weights)):
                gw = grad_w[k] + cfg.weight_decay * net.weights[k]
                gb = grad_b[k] + cfg.weight_decay * net.biases[k]
                vel_w[k] = cfg.momentum * vel_w[k] + gw
                vel_b[k] = cfg.momentum * vel_b[k] + gb
                net.weights[k] -= cfg.learning_rate * vel_w[k]
                net.biases[k] -= cfg.learning_rate * vel_b[k]
            done += 1
            if done in marks:
                record(done)
    return net, trace


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
        return float(np.median(self.cvs))


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
        svs, cvs = _logit_spectra(net, np.atleast_2d(samples)[:samples_per_group])
        out.append(GroupCvStats(group=name, cvs=cvs, singular_values=list(svs)))
    return out


def write_group_stats_csv(stats: list[GroupCvStats], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "n_samples", "mean_cv", "median_cv"])
        for s in stats:
            writer.writerow([s.group, s.cvs.shape[0],
                             f"{s.mean_cv:.17g}", f"{s.median_cv:.17g}"])


def write_group_samples_csv(stats: list[GroupCvStats], path) -> None:
    """Raw per-sample singular values, one row per probed sample."""
    if not stats:
        raise ValueError("no group statistics to write")
    k = max(len(s.singular_values[0]) for s in stats)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "sample_index", "cv"]
                        + [f"sv_{j + 1}" for j in range(k)])
        for s in stats:
            for i, (cv, svs) in enumerate(zip(s.cvs, s.singular_values)):
                row = [s.group, i, f"{cv:.17g}"] + [f"{v:.17g}" for v in svs]
                row += [""] * (3 + k - len(row))
                writer.writerow(row)


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
