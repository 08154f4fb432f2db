import contextlib
import csv
import errno
import json
import math
import os
import struct
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit import _forked, probe
from attrakit.dynsys import Activation
from attrakit.probe import (
    HELD_OUT_CLASS,
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    RANDOM_NOISE,
    TRAIN_CLASS,
    CvRecord,
    CvTrace,
    Dataset,
    GroupCvStats,
    IdxFormatError,
    TinyNet,
    TrainConfig,
    TrainingDivergedError,
    _logit_spectra,
    accuracy,
    classifier_jacobian,
    default_checkpoint_schedule,
    exclude_label,
    load_idx,
    load_net,
    loss_and_gradients,
    make_probe_samples,
    save_net,
    stratification_study,
    synth_blobs,
    train,
    write_group_samples_csv,
    write_group_stats_csv,
)
from attrakit.spectral import cv_metric
from conftest import run_python


def write_idx_pair(tmp_path, images, labels):
    """Serialize uint8 images (N, r, c) and labels (N,) in IDX layout."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols)
                         + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, n) + labels.tobytes())
    return img_path, lbl_path


def nearest_mean_accuracy(data: Dataset) -> float:
    means = np.stack([data.inputs[data.labels == k].mean(axis=0)
                      for k in range(data.n_classes)])
    d2 = ((data.inputs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    return float((d2.argmin(axis=1) == data.labels).mean())


def small_net(seed=0, dims=(6, 8, 5, 3)):
    return TinyNet.init(dims, seed=seed)


# ---------------------------------------------------------------- idx parsing

def test_load_idx_values_and_scaling(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 5, size=7, dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    data = load_idx(img_path, lbl_path)
    assert data.size == 7 and data.dim == 12
    # byte-offset oracle for the first image
    raw = img_path.read_bytes()
    first = np.frombuffer(raw, dtype=np.uint8, count=12, offset=16)
    assert np.array_equal(data.inputs[0], first / 255.0)
    assert np.array_equal(data.labels, labels)


def test_load_idx_truncates_to_max_items(tmp_path):
    images = np.arange(10 * 2 * 2, dtype=np.uint8).reshape(10, 2, 2)
    labels = np.arange(10, dtype=np.uint8) % 3
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    data = load_idx(img_path, lbl_path, max_items=4)
    assert data.size == 4
    assert np.array_equal(data.inputs[3], images[3].reshape(-1) / 255.0)


@pytest.mark.parametrize("max_items", [0, -1])
def test_load_idx_rejects_max_items_below_one(tmp_path, max_items):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, np.arange(3))
    with pytest.raises(ValueError, match="max_items must be >= 1"):
        load_idx(img_path, lbl_path, max_items=max_items)


@given(cut_images=st.booleans(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_load_idx_rejects_a_file_cut_at_any_byte(tmp_path_factory, cut_images, data):
    images = np.arange(3 * 2 * 3, dtype=np.uint8).reshape(3, 2, 3)
    img_path, lbl_path = write_idx_pair(tmp_path_factory.mktemp("idx"), images,
                                        np.arange(3))
    path = img_path if cut_images else lbl_path
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")])
    with pytest.raises(ValueError):
        load_idx(img_path, lbl_path)


def test_load_idx_magic_mismatch(tmp_path):
    images = np.zeros((2, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    img_path, lbl_path = write_idx_pair(tmp_path, images, labels)
    with pytest.raises(IdxFormatError, match="0x00000803"):
        load_idx(lbl_path, lbl_path)
    with pytest.raises(IdxFormatError, match="0x00000801"):
        load_idx(img_path, img_path)


def test_load_idx_truncated_file(tmp_path):
    img_path = tmp_path / "short.idx"
    img_path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 10, 28, 28) + b"\x00" * 12)
    lbl_path = tmp_path / "labels.idx"
    lbl_path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, 10) + b"\x00" * 10)
    with pytest.raises(IdxFormatError, match="truncated"):
        load_idx(img_path, lbl_path)


@pytest.mark.parametrize("which, magic, head, count, kind",
                         [("images", IDX_IMAGE_MAGIC, 16, 6, "image"),
                          ("labels", IDX_LABEL_MAGIC, 8, 3, "label")])
def test_load_idx_errors_name_the_file_and_its_sizes(tmp_path, which, magic, head, count,
                                                     kind):
    img_path, lbl_path = write_idx_pair(tmp_path, np.zeros((3, 1, 2), dtype=np.uint8),
                                        np.zeros(3))
    path = img_path if which == "images" else lbl_path
    raw = path.read_bytes()
    other = IDX_LABEL_MAGIC if magic == IDX_IMAGE_MAGIC else IDX_IMAGE_MAGIC
    cases = [(raw[:3], "header truncated (3 bytes)"),
             (struct.pack(">I", other) + raw[4:],
              f"expected {kind} magic 0x{magic:08x}, found 0x{other:08x}"),
             (raw[:head - 1], f"header truncated ({head - 1} bytes)"),
             (raw[:-1], f"truncated, need {head + count} bytes for 3 {kind}s, "
                        f"have {head + count - 1}")]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(IdxFormatError) as err:
            load_idx(img_path, lbl_path)
        assert str(err.value) == f"{path}: {message}"
        path.write_bytes(raw)


# ---------------------------------------------------------------- blobs

def test_blobs_separated_classes_are_linearly_solvable():
    data = synth_blobs(C=2, d=8, per_class=200, separation=8.0, seed=1)
    assert nearest_mean_accuracy(data) >= 0.99
    assert data.inputs.min() >= 0.0 and data.inputs.max() <= 1.0


def test_blobs_zero_separation_is_chance_level():
    data = synth_blobs(C=4, d=8, per_class=400, separation=0.0, seed=2)
    acc = nearest_mean_accuracy(data)
    assert abs(acc - 0.25) <= 0.05


def test_blobs_size_arithmetic():
    data = synth_blobs(C=5, d=6, per_class=1, separation=3.0, seed=3)
    assert data.size == 5
    assert sorted(data.labels) == list(range(5))


def test_blob_validation():
    with pytest.raises(ValueError):
        synth_blobs(C=1, d=4, per_class=5, separation=1.0)
    with pytest.raises(ValueError):
        synth_blobs(C=5, d=3, per_class=5, separation=1.0)
    with pytest.raises(ValueError):
        synth_blobs(C=2, d=4, per_class=5, separation=-1.0)
    for separation in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="separation must be a finite number >= 0"):
            synth_blobs(C=2, d=4, per_class=5, separation=separation)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((2, 3)), labels=np.array([0, 5]), n_classes=3)
    with pytest.raises(ValueError):
        Dataset(inputs=np.full((2, 3), 1.5), labels=np.array([0, 1]), n_classes=2)
    inputs = np.full((2, 3), 0.5)
    inputs[1, 2] = np.nan  # NaN compares False with both bounds
    with pytest.raises(ValueError, match="inputs must be finite and scaled to"):
        Dataset(inputs=inputs, labels=np.array([0, 1]), n_classes=2)


def test_exclude_label_partitions():
    data = synth_blobs(C=3, d=6, per_class=10, separation=4.0, seed=4)
    keep, held = exclude_label(data, 2)
    assert held.size == 10 and keep.size == 20
    assert not np.any(keep.labels == 2)
    assert np.all(held.labels == 2)
    assert keep.n_classes == 3


# ---------------------------------------------------------------- jacobians

def test_jacobian_of_single_linear_layer_is_weight_matrix():
    net = TinyNet.init([5, 3], seed=0)
    x = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(classifier_jacobian(net, x), net.weights[0])


def test_jacobian_one_hidden_layer_region_algebra():
    net = TinyNet.init([4, 6, 3], seed=1)
    x = np.array([0.3, 0.8, 0.1, 0.5])
    z1 = net.weights[0] @ x + net.biases[0]
    mask = (z1 > 0).astype(float)
    expected = net.weights[1] @ (mask[:, None] * net.weights[0])
    assert np.max(np.abs(classifier_jacobian(net, x) - expected)) <= 1e-14


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(2)
    for seed in range(5):
        net = TinyNet.init([6, 16, 8, 4], seed=seed)
        x = rng.uniform(0.15, 0.85, size=6)
        J = classifier_jacobian(net, x)
        h = 1e-5
        Jfd = np.empty_like(J)
        for j in range(6):
            e = np.zeros(6)
            e[j] = h
            Jfd[:, j] = (net.forward(x + e) - net.forward(x - e)) / (2 * h)
        assert np.max(np.abs(J - Jfd)) <= 1e-4 * (1.0 + np.max(np.abs(J)))


def test_jacobian_rotation_invariance_of_singular_values():
    rng = np.random.default_rng(3)
    net = TinyNet.init([6, 12, 5, 3], seed=4)
    x = rng.uniform(0.0, 1.0, 6)
    s0 = np.linalg.svd(classifier_jacobian(net, x), compute_uv=False)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        net_rot = TinyNet(net.layer_dims,
                          [net.weights[0] @ Q.T] + [W.copy() for W in net.weights[1:]],
                          [b.copy() for b in net.biases], net.hidden_activation)
        s1 = np.linalg.svd(classifier_jacobian(net_rot, Q @ x), compute_uv=False)
        assert np.max(np.abs(s0 - s1)) <= 1e-9


# ---------------------------------------------------------------- gradients

def draw_kink_free_batch(net, rng, size=3):
    """Finite differences need pre-activations away from relu kinks."""
    for _ in range(100):
        X = rng.uniform(0.0, 1.0, size=(size, net.layer_dims[0]))
        pre, _ = net._forward_cached(X)
        if min(np.min(np.abs(z)) for z in pre[:-1]) > 1e-4:
            return X
    raise AssertionError("could not find a kink-free batch")


def test_parameter_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(20):
        net = small_net(seed=trial)
        X = draw_kink_free_batch(net, rng)
        y = rng.integers(0, 3, size=3)
        _, grad_w, grad_b = loss_and_gradients(net, X, y)

        def loss_at(weights, biases):
            probe = TinyNet(net.layer_dims, weights, biases, net.hidden_activation)
            loss, _, _ = loss_and_gradients(probe, X, y)
            return loss

        h = 1e-6
        worst = 0.0
        scale = 0.0
        for k in range(len(net.weights)):
            for index in np.ndindex(net.weights[k].shape):
                w_plus = [W.copy() for W in net.weights]
                w_minus = [W.copy() for W in net.weights]
                w_plus[k][index] += h
                w_minus[k][index] -= h
                fd = (loss_at(w_plus, net.biases) - loss_at(w_minus, net.biases)) / (2 * h)
                worst = max(worst, abs(fd - grad_w[k][index]))
                scale = max(scale, abs(fd))
            for i in range(net.biases[k].shape[0]):
                b_plus = [b.copy() for b in net.biases]
                b_minus = [b.copy() for b in net.biases]
                b_plus[k][i] += h
                b_minus[k][i] -= h
                fd = (loss_at(net.weights, b_plus) - loss_at(net.weights, b_minus)) / (2 * h)
                worst = max(worst, abs(fd - grad_b[k][i]))
                scale = max(scale, abs(fd))
        assert worst <= 1e-4 * (1.0 + scale)


# ---------------------------------------------------------------- training

def test_training_is_bit_deterministic():
    data = synth_blobs(C=3, d=8, per_class=60, separation=6.0, seed=6)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=9)
    net = TinyNet.init([8, 16, 8, 3], seed=9)
    t1, _ = train(net, data, cfg)
    t2, _ = train(net, data, cfg)
    for a, b in zip(t1.weights, t2.weights):
        assert np.array_equal(a, b)
    for a, b in zip(t1.biases, t2.biases):
        assert np.array_equal(a, b)
    # the input net is left untouched
    assert np.array_equal(net.weights[0], TinyNet.init([8, 16, 8, 3], seed=9).weights[0])


def test_training_reaches_high_accuracy_on_blobs():
    data = synth_blobs(C=3, d=8, per_class=150, separation=8.0, seed=7)
    net = TinyNet.init([8, 32, 3], seed=7)
    cfg = TrainConfig(learning_rate=0.05, epochs=5, seed=7)
    trained, _ = train(net, data, cfg)
    ceiling = nearest_mean_accuracy(data)
    assert accuracy(trained, data) >= 0.95
    assert accuracy(trained, data) <= ceiling + 0.05


def test_training_loss_mostly_decreases_across_epochs():
    decreasing = 0
    total = 0
    for seed in range(10):
        data = synth_blobs(C=3, d=8, per_class=100, separation=6.0, seed=40 + seed)
        net = TinyNet.init([8, 16, 8, 3], seed=seed)
        losses = []
        for epochs in range(1, 6):
            cfg = TrainConfig(learning_rate=0.05, epochs=epochs, seed=seed)
            trained, _ = train(net, data, cfg)
            loss, _, _ = loss_and_gradients(trained, data.inputs, data.labels)
            losses.append(loss)
        for a, b in zip(losses, losses[1:]):
            total += 1
            decreasing += b <= a
    assert decreasing / total >= 0.9


def test_training_diverges_with_absurd_learning_rate():
    data = synth_blobs(C=3, d=8, per_class=50, separation=6.0, seed=8)
    net = TinyNet.init([8, 16, 8, 3], seed=8)
    cfg = TrainConfig(learning_rate=1e4, epochs=3, seed=8)
    with pytest.raises(TrainingDivergedError):
        train(net, data, cfg)


def test_cv_trace_records_and_consistency():
    data = synth_blobs(C=3, d=8, per_class=80, separation=6.0, seed=10)
    net = TinyNet.init([8, 16, 8, 3], seed=10)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=10)
    probes = make_probe_samples(data, n_per_category=4, seed=11)
    _, trace = train(net, data, cfg, probes=probes)
    assert trace.records
    cps = trace.checkpoints()
    assert cps[0] == 0
    assert trace.final_checkpoint() == cps[-1]
    for r in trace.records:
        assert abs(r.cv - cv_metric(r.singular_values)) <= 1e-12
    categories = {r.category for r in trace.records}
    assert categories == {TRAIN_CLASS, RANDOM_NOISE}


def test_cv_trace_csv_format(tmp_path):
    data = synth_blobs(C=3, d=8, per_class=40, separation=6.0, seed=12)
    net = TinyNet.init([8, 16, 8, 3], seed=12)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=12)
    probes = make_probe_samples(data, n_per_category=2, seed=13)
    _, trace = train(net, data, cfg, probes=probes)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "checkpoint,sample_id,category,cv,sv_1,sv_2,sv_3,sv_4"
    first = lines[1].split(",")
    assert first[2] in {TRAIN_CLASS, RANDOM_NOISE}
    # three singular values for three logits, fourth column left empty
    assert first[4] and first[5] and first[6] and first[7] == ""


def test_default_checkpoint_schedule():
    sched = default_checkpoint_schedule(n_batches_per_epoch=25, epochs=3)
    assert sched[0] == 0
    assert 10 in sched and 20 in sched
    assert {25, 50, 75} <= set(sched)
    assert sched == sorted(set(sched))


def test_stratification_study_groups():
    data = synth_blobs(C=3, d=12, per_class=1000, separation=6.0, seed=1000)
    net = TinyNet.init([12, 128, 64, 3], seed=0)
    cfg = TrainConfig(learning_rate=0.02, epochs=5, seed=0)
    trained, _ = train(net, data, cfg)
    rng = np.random.default_rng(14)
    groups = {
        "train_class": data.inputs[rng.choice(data.size, 48, replace=False)],
        "random_noise": rng.uniform(0.0, 1.0, size=(48, 12)),
    }
    stats = stratification_study(trained, groups, samples_per_group=48)
    by_name = {s.group: s for s in stats}
    assert by_name["train_class"].mean_cv > by_name["random_noise"].mean_cv
    for s in stats:
        assert s.cvs.shape[0] == 48
        assert all(len(sv) == 3 for sv in s.singular_values)


def test_stratification_identical_samples_have_zero_spread():
    net = TinyNet.init([6, 8, 3], seed=15)
    x = np.full(6, 0.4)
    stats = stratification_study(net, {"dup": np.tile(x, (10, 1))})
    assert np.all(stats[0].cvs == stats[0].cvs[0])


def assert_matches_per_sample_reference(net, X, singular_values, cvs):
    assert len(singular_values) == len(cvs) == X.shape[0]
    for x, s, cv in zip(X, singular_values, cvs):
        ref = np.linalg.svd(classifier_jacobian(net, x), compute_uv=False)
        assert np.max(np.abs(s - ref)) <= 1e-12
        assert abs(cv - (cv_metric(ref) if ref[0] > 0.0 else 0.0)) <= 1e-12


@pytest.mark.parametrize("dims, activation", [
    ((6, 16, 8, 4), Activation.relu),
    ((6, 16, 8, 4), Activation.tanh),
    ((6, 4), Activation.relu),
])
def test_stratification_spectra_match_per_sample_reference(dims, activation):
    net = TinyNet.init(dims, seed=23, hidden_activation=activation)
    X = np.random.default_rng(24).uniform(0.0, 1.0, (20, 6))
    stats = stratification_study(net, {"g": X})
    assert_matches_per_sample_reference(net, X, stats[0].singular_values, stats[0].cvs)


def test_stratification_spectra_in_blocks_are_the_bits_of_one_stack():
    # the study takes its spectra a block of rows at a time
    net = TinyNet.init([12, 128, 64, 3], seed=41)
    X = np.random.default_rng(42).uniform(0.0, 1.0, (2 * probe._BLOCK_ROWS + 5, 12))
    stats = stratification_study(net, {"g": X}, samples_per_group=X.shape[0])
    svs, cvs = _logit_spectra(net, X)
    assert stats[0].cvs.tobytes() == cvs.tobytes()
    assert np.array(stats[0].singular_values).tobytes() == svs.tobytes()


def test_stratification_dead_hidden_units_give_zero_spectrum_and_cv():
    net = TinyNet.init([4, 5, 3], seed=25)
    net.biases[0][:] = -100.0  # every hidden unit is off for inputs in [0, 1]
    X = np.random.default_rng(26).uniform(0.0, 1.0, (3, 4))
    stats = stratification_study(net, {"dead": X})
    assert all(np.all(s == 0.0) for s in stats[0].singular_values)
    assert np.all(stats[0].cvs == 0.0)
    assert_matches_per_sample_reference(net, X, stats[0].singular_values, stats[0].cvs)


def test_train_records_match_per_sample_reference():
    data = synth_blobs(C=3, d=8, per_class=40, separation=6.0, seed=27)
    net = TinyNet.init([8, 16, 8, 3], seed=27)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=27)
    probes = make_probe_samples(data, n_per_category=3, seed=28)
    trained, trace = train(net, data, cfg, probes=probes)
    final = [r for r in trace.records if r.checkpoint == trace.final_checkpoint()]
    assert [r.sample_id for r in final] == [p.sample_id for p in probes]
    assert_matches_per_sample_reference(trained, np.array([p.x for p in probes]),
                                        [r.singular_values for r in final],
                                        [r.cv for r in final])


def test_train_without_probes_records_nothing():
    data = synth_blobs(C=3, d=8, per_class=20, separation=6.0, seed=29)
    cfg = TrainConfig(learning_rate=0.05, epochs=1, seed=29)
    _, trace = train(TinyNet.init([8, 6, 3], seed=29), data, cfg, probes=[])
    assert trace.records == []


def train_seeing_cpus(monkeypatch, cpus, net, data, cfg, probes):
    """train's result where `cpus` CPUs are usable."""
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    return train(net, data, cfg, probes=probes)


def assert_same_training(got, want):
    (got_net, got_trace), (want_net, want_trace) = got, want
    for a, b in zip(got_net.weights + got_net.biases, want_net.weights + want_net.biases):
        assert np.array_equal(a, b)
    assert len(got_trace.records) == len(want_trace.records)
    for r, s in zip(got_trace.records, want_trace.records):
        assert (r.checkpoint, r.sample_id, r.category) == (s.checkpoint, s.sample_id, s.category)
        assert struct.pack("<d", r.cv) == struct.pack("<d", s.cv)
        assert r.singular_values.dtype == s.singular_values.dtype
        assert r.singular_values.tobytes() == s.singular_values.tobytes()


def spectra_run():
    """A net, data, config and probes for a short training with 21 checkpoints."""
    data = synth_blobs(C=3, d=12, per_class=120, separation=6.0, seed=31)
    cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=31)
    return (TinyNet.init([12, 32, 16, 3], seed=31), data, cfg,
            make_probe_samples(data, n_per_category=5, seed=32))


def test_train_with_a_spectra_process_records_the_bits_of_one_cpu(monkeypatch, forks,
                                                                   openblas):
    # one forked process takes the spectra on 2 CPUs as on 3; none on 1; the
    # 1-CPU run takes them here on two OpenBLAS threads
    openblas[1](2)
    run = spectra_run()
    one = train_seeing_cpus(monkeypatch, 1, *run)
    assert forks == [] and len(one[1].records) > 0
    for forked, cpus in enumerate((2, 3), start=1):
        assert_same_training(train_seeing_cpus(monkeypatch, cpus, *run), one)
        assert len(forks) == forked


def test_train_runs_both_processes_on_one_blas_thread_and_puts_the_count_back(
        monkeypatch, forks, openblas, tmp_path):
    get, set_ = openblas
    set_(3)
    seen = tmp_path / "seen"
    sgd, spectra = probe._sgd, probe._logit_spectra

    def sgd_seeing_threads(*args):
        with seen.open("a") as f:
            f.write(f"sgd {get()}\n")
        return sgd(*args)

    def spectra_seeing_threads(net, X):
        # written from the spectra process, which forked after the sgd began
        with seen.open("a") as f:
            f.write(f"spectra {get()}\n")
        return spectra(net, X)
    monkeypatch.setattr(probe, "_sgd", sgd_seeing_threads)
    monkeypatch.setattr(probe, "_logit_spectra", spectra_seeing_threads)
    _, trace = train_seeing_cpus(monkeypatch, 2, *spectra_run())
    assert len(forks) == 1
    assert get() == 3
    lines = seen.read_text().splitlines()
    assert lines.count("sgd 1") == 1
    assert lines.count("spectra 1") == len(trace.checkpoints()) == len(lines) - 1


def test_train_takes_the_spectra_here_when_the_spectra_process_fails(monkeypatch, forks,
                                                                     openblas):
    run = spectra_run()
    one = train_seeing_cpus(monkeypatch, 1, *run)
    parent = os.getpid()
    spectra = probe._logit_spectra
    calls = {"here": 0, "forked": 0}

    def fail_at_the_third_snapshot(net, X):
        where = "here" if os.getpid() == parent else "forked"
        calls[where] += 1
        if where == "forked" and calls[where] == 3:
            raise RuntimeError("the spectra process fails")
        return spectra(net, X)
    monkeypatch.setattr(probe, "_logit_spectra", fail_at_the_third_snapshot)
    assert_same_training(train_seeing_cpus(monkeypatch, 2, *run), one)
    assert len(forks) == 1
    # the forked counts stay in that process; here, the training ran again
    # and took every checkpoint's spectra itself
    assert calls["here"] == len(one[1].checkpoints())


def test_train_diverging_with_a_spectra_process_leaves_no_process(monkeypatch, forks, openblas):
    get, set_ = openblas
    set_(2)
    net, data, _, probes = spectra_run()
    cfg = TrainConfig(learning_rate=1e4, epochs=3, seed=8)
    with pytest.raises(TrainingDivergedError):
        train_seeing_cpus(monkeypatch, 2, net, data, cfg, probes)
    assert len(forks) == 1
    assert _forked._feeds == set()
    assert get() == 2


def wait_until_exited(pid):
    """Return once process pid has exited, before it is reaped (a zombie)."""
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + 60
    # the state is the field after the command name, which is in parentheses
    while stat.read_text().rsplit(")", 1)[1].split()[0] != "Z":
        assert time.monotonic() < deadline, f"process {pid} did not exit"
        time.sleep(0.001)


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc/<pid>/stat")
def test_train_feeding_a_spectra_process_that_has_exited_trains_again_here(monkeypatch,
                                                                            forks, openblas):
    # the spectra process fails at its first snapshot, and every later one
    # is sent once it has exited, so each of those sends meets a closed pipe
    run = spectra_run()
    one = train_seeing_cpus(monkeypatch, 1, *run)
    parent = os.getpid()
    spectra, sgd = probe._logit_spectra, probe._sgd
    here, trainings = [], []

    def fail_in_the_spectra_process(net, X):
        if os.getpid() != parent:
            raise RuntimeError("the spectra process fails")
        here.append(1)
        return spectra(net, X)

    def sgd_sending_after_the_exit(net, data, cfg, marks, at_mark):
        trainings.append(1)
        if len(trainings) == 1:  # the training that feeds the spectra process
            def at_mark_after_the_exit(checkpoint, trained, params):
                if checkpoint > 0:
                    wait_until_exited(forks[0])
                at_mark(checkpoint, trained, params)
            return sgd(net, data, cfg, marks, at_mark_after_the_exit)
        return sgd(net, data, cfg, marks, at_mark)
    monkeypatch.setattr(probe, "_logit_spectra", fail_in_the_spectra_process)
    monkeypatch.setattr(probe, "_sgd", sgd_sending_after_the_exit)
    assert_same_training(train_seeing_cpus(monkeypatch, 2, *run), one)
    assert len(forks) == 1 and len(trainings) == 2
    assert len(here) == len(one[1].checkpoints())
    assert _forked._feeds == set()


@pytest.mark.parametrize("case", ["no-probes", "no-openblas", "wide-product", "long-inner"])
def test_train_forks_only_where_one_blas_thread_holds(monkeypatch, forks, request, case):
    # with probes and an OpenBLAS it can set, train forks a spectra process
    # for a net of any width, whose products then run on one thread
    net, data, cfg, probes = spectra_run()
    if case == "no-probes":
        probes = []
    elif case == "no-openblas":
        monkeypatch.setattr(_forked, "_openblas_threads", lambda: None)
    else:
        request.getfixturevalue("openblas")
        if case == "wide-product":
            # 64 * 128 * 64 multiply-adds, which OpenBLAS splits across threads
            net = TinyNet.init([12, 128, 64, 3], seed=31)
            cfg = TrainConfig(learning_rate=0.05, epochs=2, seed=31, batch_size=64)
        else:
            # a product summing over 129 terms, whose blocks could fall
            # differently on one thread and on more
            net = TinyNet.init([12, 129, 16, 3], seed=31)
    one = train_seeing_cpus(monkeypatch, 1, net, data, cfg, probes)
    assert_same_training(train_seeing_cpus(monkeypatch, 2, net, data, cfg, probes), one)
    assert len(forks) == (case in ("wide-product", "long-inner"))


def test_train_without_probes_trains_on_the_callers_blas_threads(monkeypatch, forks,
                                                                  openblas):
    get, set_ = openblas
    set_(3)
    seen = []
    sgd = probe._sgd

    def sgd_seeing_threads(*args):
        seen.append(get())
        return sgd(*args)
    monkeypatch.setattr(probe, "_sgd", sgd_seeing_threads)
    net, data, cfg, _ = spectra_run()
    _, trace = train_seeing_cpus(monkeypatch, 2, net, data, cfg, [])
    assert seen == [3] and trace.records == []
    assert forks == [] and get() == 3


def test_stratification_skips_empty_group():
    net = TinyNet.init([6, 8, 3], seed=16)
    with pytest.warns(UserWarning, match="empty"):
        stats = stratification_study(net, {"none": np.zeros((0, 6)),
                                           "flat": np.array([]),
                                           "ok": np.full((3, 6), 0.5)})
    assert [s.group for s in stats] == ["ok"]


@pytest.mark.parametrize("count", [0, -1])
def test_stratification_rejects_a_sample_count_below_one(count):
    net = TinyNet.init([6, 8, 3], seed=16)
    with pytest.raises(ValueError, match="samples_per_group must be >= 1"):
        stratification_study(net, {"ok": np.full((3, 6), 0.5)}, samples_per_group=count)


def test_group_csv_outputs(tmp_path):
    net = TinyNet.init([6, 8, 3], seed=17)
    rng = np.random.default_rng(18)
    stats = stratification_study(net, {"a": rng.uniform(0, 1, (5, 6)),
                                       "b": rng.uniform(0, 1, (4, 6))})
    stats_path = tmp_path / "stats.csv"
    samples_path = tmp_path / "samples.csv"
    write_group_stats_csv(stats, stats_path)
    write_group_samples_csv(stats, samples_path)
    lines = stats_path.read_text().splitlines()
    assert lines[0] == "group,n_samples,mean_cv,median_cv"
    assert len(lines) == 3
    sample_lines = samples_path.read_text().splitlines()
    assert sample_lines[0] == "group,sample_index,cv,sv_1,sv_2,sv_3"
    assert len(sample_lines) == 10
    # csv.writer's CRLF rows, with no newline translation on the way
    for path, rows in ((stats_path, 3), (samples_path, 10)):
        data = path.read_bytes()
        assert data.count(b"\r\n") == data.count(b"\n") == rows
        assert b"\r\r" not in data


class DiskFullAfter:
    """A text file whose writes fail as on a full disk once `writes` went through."""

    def __init__(self, fh, writes):
        self.fh, self.writes = fh, writes

    def write(self, text):
        if self.writes == 0:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.fh.write(text)


def write_failing_midway(which, path, monkeypatch):
    """Write one of probe's CSVs, failing after its first rows."""
    good = GroupCvStats(group="good", cvs=np.array([0.5]), singular_values=[np.array([2.0])])
    bad = GroupCvStats(group="bad", cvs=np.array(["x"]), singular_values=[np.array([2.0])])
    if which == "cvtrace":
        # the disk fills at the 300th of 600 checkpoints, after the first
        # rows have left the file's buffer
        opened = probe.open_replacing

        @contextlib.contextmanager
        def filling_up(*args, **kwargs):
            with opened(*args, **kwargs) as fh:
                yield DiskFullAfter(fh, 300)

        monkeypatch.setattr(probe, "open_replacing", filling_up)
        CvTrace(np.arange(600), ["s"], [TRAIN_CLASS], np.full((600, 1), 0.5),
                np.full((600, 1, 1), 2.0)).to_csv(path)
    elif which == "stratification":
        write_group_stats_csv([good, bad], path)
    else:
        write_group_samples_csv([good, bad], path)


@pytest.mark.parametrize("which", ["cvtrace", "stratification", "stratification_samples"])
def test_probe_csv_that_fails_midway_leaves_no_file(tmp_path, monkeypatch, which):
    with pytest.raises((TypeError, ValueError, OSError)):
        write_failing_midway(which, tmp_path / f"{which}.csv", monkeypatch)
    assert list(tmp_path.iterdir()) == []


def test_net_checkpoint_round_trip(tmp_path):
    net = TinyNet.init([5, 7, 4], seed=19)
    path = tmp_path / "model.json"
    save_net(net, path)
    loaded = load_net(path)
    assert loaded.layer_dims == net.layer_dims
    for a, b in zip(loaded.weights, net.weights):
        assert np.array_equal(a, b)
    x = np.full(5, 0.3)
    assert np.array_equal(loaded.forward(x), net.forward(x))


@pytest.mark.parametrize("keep", [0, 1, 3])
def test_net_rejects_a_bias_count_other_than_the_weight_count(keep):
    net = TinyNet.init([4, 5, 3], seed=21)
    biases = (net.biases + [np.zeros(3)])[:keep]
    with pytest.raises(ValueError, match=f"{keep} bias vectors for 2 weight matrices"):
        TinyNet(net.layer_dims, net.weights, biases)


def test_load_net_rejects_a_model_with_a_missing_bias(tmp_path):
    path = tmp_path / "model.json"
    save_net(TinyNet.init([4, 5, 3], seed=21), path)
    d = json.loads(path.read_text())
    del d["biases"][-1]
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="1 bias vectors for 2 weight matrices"):
        load_net(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_net_param_count():
    net = TinyNet.init([6, 8, 5, 3], seed=20)
    assert net.param_count == 6 * 8 + 8 + 8 * 5 + 5 + 5 * 3 + 3


# ------------------------------------------- flat-buffer training and blocks

def reference_loss_and_gradients(net, X, y):
    """Per-layer loss and gradients, written as before training used one flat buffer."""
    pre, layer_inputs, a = [], [X], X
    last = len(net.weights) - 1
    for k, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        pre.append(z)
        a = z if k == last else net.hidden_activation(z)
        if k != last:
            layer_inputs.append(a)
    logits = pre[-1]
    B = X.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(B), y].mean())

    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    dz = e / e.sum(axis=1, keepdims=True)
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


def reference_train(net, data, cfg, probes):
    """train's SGD as one update per layer and per array, for bit comparison."""
    net = net.copy()
    rng = np.random.default_rng(cfg.seed)
    n_batches = int(np.ceil(data.size / cfg.batch_size))
    marks = set(default_checkpoint_schedule(n_batches, cfg.epochs)) | {n_batches * cfg.epochs}
    probe_x = np.array([p.x for p in probes])
    records = []

    def record(checkpoint):
        svs, cvs = _logit_spectra(net, probe_x)
        records.extend(CvRecord(checkpoint, p.sample_id, p.category, float(cv), s)
                       for p, cv, s in zip(probes, cvs, svs))

    vel_w = [np.zeros_like(W) for W in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    done = 0
    record(0)
    for _ in range(cfg.epochs):
        order = rng.permutation(data.size)
        for start in range(0, data.size, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grad_w, grad_b = reference_loss_and_gradients(
                net, data.inputs[idx], data.labels[idx])
            if not math.isfinite(loss):
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
    return net, records


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dims, activation, weight_decay, momentum", [
    ((8, 16, 8, 3), Activation.relu, 5e-4, 0.9),
    ((8, 16, 8, 3), Activation.tanh, 0.0, 0.0),
    ((8, 12, 3), Activation.tanh, 5e-4, 0.9),
    ((8, 12, 3), Activation.relu, 0.0, 0.9),
    ((8, 3), Activation.relu, 5e-4, 0.0),
    ((8, 16, 8, 3), Activation.logistic, 5e-4, 0.9),
    ((8, 16, 8, 3), Activation.sine, 5e-4, 0.9),
])
def test_train_is_bit_identical_to_the_per_layer_update(dims, activation, weight_decay,
                                                        momentum):
    # 105 rows in batches of 32: every epoch ends on a partial batch of 9
    data = synth_blobs(C=3, d=8, per_class=35, separation=6.0, seed=31)
    net = TinyNet.init(dims, seed=32, hidden_activation=activation)
    cfg = TrainConfig(learning_rate=0.05, momentum=momentum, weight_decay=weight_decay,
                      batch_size=32, epochs=3, seed=33)
    probes = make_probe_samples(data, n_per_category=2, seed=34)
    trained, trace = train(net, data, cfg, probes=probes)
    want, want_records = reference_train(net, data, cfg, probes)
    # bytes, not np.array_equal, so a -0 where the reference has +0 fails
    assert_same_bits(trained.weights + trained.biases, want.weights + want.biases)
    assert len(trace.records) == len(want_records)
    for got, ref in zip(trace.records, want_records):
        assert (got.checkpoint, got.sample_id, got.category) == (
            ref.checkpoint, ref.sample_id, ref.category)
        assert struct.pack("<d", got.cv) == struct.pack("<d", ref.cv)
        assert_same_bits([got.singular_values], [ref.singular_values])


@pytest.mark.parametrize("activation, learning_rate", [
    (Activation.relu, 1e4),
    (Activation.sine, 1e30),  # a bounded activation diverges only at an absurd rate
    (Activation.tanh, 1e200),
])
def test_train_diverges_at_the_batch_and_loss_of_the_per_layer_update(activation,
                                                                     learning_rate):
    data = synth_blobs(C=3, d=8, per_class=35, separation=6.0, seed=31)
    net = TinyNet.init((8, 16, 8, 3), seed=32, hidden_activation=activation)
    cfg = TrainConfig(learning_rate=learning_rate, batch_size=32, epochs=3, seed=33)
    probes = make_probe_samples(data, n_per_category=2, seed=34)
    with pytest.raises(TrainingDivergedError) as got:
        train(net, data, cfg, probes=probes)
    with pytest.raises(TrainingDivergedError) as want, \
            np.errstate(over="ignore", invalid="ignore"):
        reference_train(net, data, cfg, probes)
    assert got.value.batch == want.value.batch
    assert struct.pack("<d", got.value.loss) == struct.pack("<d", want.value.loss)


def test_loss_and_gradients_match_the_per_layer_reference():
    data = synth_blobs(C=3, d=6, per_class=10, separation=6.0, seed=35)
    for activation in Activation:
        net = small_net(seed=36)
        net.hidden_activation = activation
        loss, grad_w, grad_b = loss_and_gradients(net, data.inputs, data.labels)
        ref_loss, ref_w, ref_b = reference_loss_and_gradients(net, data.inputs, data.labels)
        assert struct.pack("<d", loss) == struct.pack("<d", ref_loss), activation
        assert_same_bits(grad_w + grad_b, ref_w + ref_b)


@pytest.mark.parametrize("size", [1, 63, 64, 65, 255, 256, 257, 3000])
def test_accuracy_in_blocks_equals_the_whole_batch_mean(size):
    blobs = synth_blobs(C=3, d=12, per_class=1000, separation=2.0, seed=37)
    rows = np.random.default_rng(size).permutation(blobs.size)[:size]
    data = Dataset(inputs=blobs.inputs[rows], labels=blobs.labels[rows], n_classes=3)
    net = TinyNet.init([12, 128, 64, 3], seed=38)
    want = float((net.forward(data.inputs).argmax(1) == data.labels).mean())
    assert accuracy(net, data) == want


def test_accuracy_builds_no_whole_dataset_activations():
    data = synth_blobs(C=3, d=12, per_class=1000, separation=6.0, seed=39)
    net = TinyNet.init([12, 128, 64, 3], seed=40)
    tracemalloc.start()
    try:
        accuracy(net, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # forwarding all 3000 rows at once peaks at about 9.4 MB
    assert peak < 2_000_000


def reference_cv_trace_csv(trace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "sample_id", "category", "cv",
                         "sv_1", "sv_2", "sv_3", "sv_4"])
        for checkpoint, cvs, svs in zip(trace.checkpoint_ids, trace.cvs,
                                        trace.singular_values):
            for sample_id, category, cv, s in zip(trace.sample_ids, trace.categories, cvs, svs):
                cells = [f"{v:.17g}" for v in s[:4]]
                cells += [""] * (4 - len(cells))
                writer.writerow([int(checkpoint), sample_id, category, f"{cv:.17g}"] + cells)


def test_cv_trace_csv_bytes_match_csv_writer(tmp_path):
    sample_ids = ["train_class/0", 'odd, "quoted" id', "two\nlines", "", "100% sure"]
    categories = [TRAIN_CLASS, HELD_OUT_CLASS, RANDOM_NOISE, "cat,egory", "%d"]
    # many checkpoints, one block each
    checkpoints = np.arange(0, 3000, 10)
    # k < 4 leaves empty cells, k > 4 drops singular values
    for k in (3, 4, 5):
        rng = np.random.default_rng(41 + k)
        cvs = rng.random((checkpoints.size, 5))
        cvs[0, :4] = [0.25, 1 / 3, 0.0, 1e-300]
        svs = rng.uniform(0, 9, (checkpoints.size, 5, k))
        svs[1, 3, -1] = -0.0
        trace = CvTrace(checkpoints, sample_ids, categories, cvs, svs)
        trace.to_csv(tmp_path / f"got{k}.csv")
        reference_cv_trace_csv(trace, tmp_path / f"want{k}.csv")
        assert (tmp_path / f"got{k}.csv").read_bytes() == \
            (tmp_path / f"want{k}.csv").read_bytes(), k


def test_cv_trace_records_are_its_cells_row_by_row():
    svs = np.arange(24.0).reshape(2, 3, 4)
    trace = CvTrace([0, 10], ["a", "b", "c"], [TRAIN_CLASS, RANDOM_NOISE, TRAIN_CLASS],
                    [[0.5, 0.25, -0.0], [1.5, 2.0, 3.0]], svs)
    records = trace.records
    assert [(r.checkpoint, r.sample_id, r.category, r.cv) for r in records] == [
        (0, "a", TRAIN_CLASS, 0.5), (0, "b", RANDOM_NOISE, 0.25), (0, "c", TRAIN_CLASS, -0.0),
        (10, "a", TRAIN_CLASS, 1.5), (10, "b", RANDOM_NOISE, 2.0), (10, "c", TRAIN_CLASS, 3.0)]
    assert all(type(r.checkpoint) is int and type(r.cv) is float for r in records)
    assert math.copysign(1.0, records[2].cv) == -1.0
    assert_same_bits([r.singular_values for r in records], list(svs.reshape(6, 4)))
    assert trace.checkpoints() == [0, 10] and trace.final_checkpoint() == 10
    assert trace.mean_cv(TRAIN_CLASS, 10) == float(np.mean([1.5, 3.0]))
    with pytest.raises(ValueError, match="no records"):
        trace.mean_cv(HELD_OUT_CLASS, 0)
    with pytest.raises(ValueError, match="no records"):
        trace.mean_cv(TRAIN_CLASS, 5)
    with pytest.raises(ValueError, match="2 checkpoints and 3 samples"):
        CvTrace([0, 10], ["a", "b", "c"], ["x", "y", "z"], np.zeros((2, 2)), svs)


def reference_group_csvs(stats, stats_path, samples_path):
    with open(stats_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "n_samples", "mean_cv", "median_cv"])
        for s in stats:
            writer.writerow([s.group, s.cvs.shape[0],
                             f"{s.cvs.mean():.17g}", f"{np.median(s.cvs):.17g}"])
    k = max(len(s.singular_values[0]) for s in stats)
    with open(samples_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "sample_index", "cv"] + [f"sv_{j + 1}" for j in range(k)])
        for s in stats:
            for i, (cv, svs) in enumerate(zip(s.cvs, s.singular_values)):
                row = [s.group, i, f"{cv:.17g}"] + [f"{v:.17g}" for v in svs]
                row += [""] * (3 + k - len(row))
                writer.writerow(row)


def test_group_csvs_bytes_match_csv_writer(tmp_path):
    rng = np.random.default_rng(43)

    def group(name, count, k):
        return GroupCvStats(group=name, cvs=rng.uniform(0, 2, count),
                            singular_values=list(rng.uniform(0, 9, (count, k))))
    # quoted names, singular-value counts that differ between groups, and
    # more rows than one block of the writer
    stats = [group("train_class", 5, 3), group('odd, "quoted" group', 300, 5),
             group("two\nlines", 4, 2), group("", 1, 4), group("cr\rgroup", 2, 3),
             GroupCvStats(group="edge", cvs=np.array([0.0, -0.0, 1e-300, np.nan]),
                          singular_values=[np.array([2.0, -0.0, 5e-324])] * 4)]
    write_group_stats_csv(stats, tmp_path / "stats.csv")
    write_group_samples_csv(stats, tmp_path / "samples.csv")
    reference_group_csvs(stats, tmp_path / "want_stats.csv", tmp_path / "want_samples.csv")
    for got, want in (("stats.csv", "want_stats.csv"), ("samples.csv", "want_samples.csv")):
        assert (tmp_path / got).read_bytes() == (tmp_path / want).read_bytes()
    assert len((tmp_path / "samples.csv").read_bytes().split(b"\r\n")) > 300


def same_bits(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("cvs", [[0.3], [0.5, 0.1, 0.9], [0.1, 0.2], [0.7, 0.1, 0.4, 0.2],
                                 [0.2, 0.2, 0.2, 0.5], [1.0, 1.0, 0.0], [0.1, np.nan, 0.2],
                                 [np.nan, 0.1], [1e308, 1e308], [-np.inf, np.inf],
                                 [0.1 + 0.2, 0.3, 0.7, 1 / 3], [-0.0], []])
def test_median_cv_has_the_bits_of_np_median(cvs):
    stats = GroupCvStats(group="g", cvs=np.array(cvs), singular_values=[])
    assert same_bits(stats.median_cv, float(np.median(cvs)))


@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
@settings(max_examples=200, deadline=None)
def test_median_cv_has_the_bits_of_np_median_for_any_doubles(cvs):
    stats = GroupCvStats(group="g", cvs=np.array(cvs, dtype=float), singular_values=[])
    with np.errstate(invalid="ignore", over="ignore"):
        assert same_bits(stats.median_cv, float(np.median(np.array(cvs, dtype=float))))


def test_probe_run_imports_no_numpy_ma(tmp_path):
    # np.median's NaN check imports numpy.ma; the probe's median does not
    argv = ["probe", "--synthetic", "--classes", "3", "--dim", "8", "--epochs", "1",
            "--per-class", "40", "--probes-per-category", "2", "--samples-per-group", "10",
            "--out-dir", str(tmp_path)]
    code = ("import sys\n"
            "from attrakit.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    done = run_python("-c", code, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "stratification.csv").exists()
