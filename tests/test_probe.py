import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.dynsys import Activation
from attrakit.probe import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    RANDOM_NOISE,
    TRAIN_CLASS,
    Dataset,
    IdxFormatError,
    TinyNet,
    TrainConfig,
    TrainingDivergedError,
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


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(inputs=np.zeros((2, 3)), labels=np.array([0, 5]), n_classes=3)
    with pytest.raises(ValueError):
        Dataset(inputs=np.full((2, 3), 1.5), labels=np.array([0, 1]), n_classes=2)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
