import warnings

import numpy as np
import pytest

from attrakit import construct
from attrakit.cli import subseed
from attrakit.construct import (
    ConstructedAttractor,
    construct_relu_attractor,
    constructed_from_dict,
    constructed_to_dict,
    load_constructed,
    sample_attractor_points,
    save_constructed,
    verify_construction,
)
from attrakit.dynsys import Activation, KinkWarning, SystemForm, eval_field, make_system
from attrakit.equilibria import _boundary_masks, attractor_dimension, residual_jacobian
from attrakit.spectral import svd_spectrum

SHAPES = [(4, 2, 1), (6, 4, 2), (8, 4, 3)]


def hand_line_instance():
    """p=2, z=1, m=1 with eigenvalues {1, 0.5} and an interior basis vector."""
    v = np.array([0.6, 0.8])
    W_P = 0.5 * np.eye(2) + 0.5 * np.outer(v, v)
    W_ZP = np.array([[-0.5, 0.0]])
    b_Z = np.array([-1.0])
    W = np.block([[W_P, np.zeros((2, 1))], [W_ZP, np.zeros((1, 1))]])
    sys1 = make_system(W=W, A=np.eye(3), b=np.array([0.0, 0.0, -1.0]),
                       activation=Activation.relu, form=SystemForm.post_activation)
    return ConstructedAttractor(sys=sys1, p=2, z=1, m=1, basis=v[:, None],
                                W_ZP=W_ZP, b_Z=b_Z, c_max=10.0)


def test_hand_line_instance_verifies():
    ca = hand_line_instance()
    report = verify_construction(ca, n_samples=20, seed=0)
    assert report.passed
    assert report.expected_rank == 2
    assert report.max_residual <= 1e-12


def test_hand_line_instance_spectrum():
    ca = hand_line_instance()
    x = ca.point_at([2.0])
    eig = np.sort(np.linalg.eigvals(residual_jacobian(ca.sys, x)).real)
    assert np.max(np.abs(eig - np.array([-1.0, -0.5, 0.0]))) <= 1e-9


def test_single_unit_instance():
    # m = p = z = 1: W_P = [1], W_ZP = [-1], b_Z = [-1]
    W = np.array([[1.0, 0.0], [-1.0, 0.0]])
    sys1 = make_system(W=W, A=np.eye(2), b=np.array([0.0, -1.0]),
                       activation=Activation.relu, form=SystemForm.post_activation)
    ca = ConstructedAttractor(sys=sys1, p=1, z=1, m=1, basis=np.array([[1.0]]),
                              W_ZP=np.array([[-1.0]]), b_Z=np.array([-1.0]))
    x = ca.point_at([0.7])
    J = residual_jacobian(ca.sys, x)
    eig = np.sort(np.linalg.eigvals(J).real)
    assert np.max(np.abs(eig - np.array([-1.0, 0.0]))) <= 1e-12
    report = verify_construction(ca, n_samples=10, seed=0)
    assert report.passed
    assert report.expected_rank == 1


def test_identity_block_when_m_equals_p():
    ca = construct_relu_attractor(p=3, z=1, m=3, seed=0)
    assert np.allclose(ca.sys.W[:3, :3], np.eye(3), atol=1e-12)
    x = ca.point_at([0.3, 4.0, 9.0])
    assert np.linalg.norm(eval_field(ca.sys, x)) <= 1e-12


@pytest.mark.parametrize("p,z,m", SHAPES)
def test_generated_instances_verify(p, z, m):
    for seed in range(3):
        ca = construct_relu_attractor(p, z, m, seed=seed)
        report = verify_construction(ca, n_samples=15, seed=seed + 50)
        assert report.passed, report.failures
        assert np.all(report.ranks == p + z - m)
        assert np.all(report.zero_eig_counts == m)
        assert report.max_nonzero_realpart < -0.1


def test_basis_is_orthonormal_and_nonnegative():
    ca = construct_relu_attractor(p=7, z=3, m=3, seed=4)
    V = ca.basis
    assert np.linalg.norm(V.T @ V - np.eye(3)) <= 1e-12
    assert np.all(V >= 0.0)


def test_wp_symmetric_with_top_eigenvalue_one_multiplicity_m():
    ca = construct_relu_attractor(p=6, z=2, m=2, seed=8)
    W_P = ca.sys.W[:6, :6]
    assert np.max(np.abs(W_P - W_P.T)) <= 1e-15
    evals = np.sort(np.linalg.eigvalsh(W_P))[::-1]
    assert np.max(np.abs(evals[:2] - 1.0)) <= 1e-12
    assert np.all(evals[2:] <= 0.8 + 1e-12)
    assert np.all(evals[2:] >= 0.2 - 1e-12)


def test_spectrum_law_block_triangular():
    ca = construct_relu_attractor(p=5, z=3, m=2, seed=12)
    W_P = ca.sys.W[:5, :5]
    expected = np.concatenate([np.linalg.eigvalsh(W_P) - 1.0, -np.ones(3)])
    x = ca.point_at(np.full(2, 3.0))
    eig = np.linalg.eigvals(residual_jacobian(ca.sys, x))
    assert np.max(np.abs(eig.imag)) <= 1e-9
    assert np.max(np.abs(np.sort(eig.real) - np.sort(expected))) <= 1e-9


def test_sample_points_line_collinear():
    ca = hand_line_instance()
    pts = sample_attractor_points(ca, 3, seed=1)
    assert len({tuple(p) for p in pts}) == 3
    d01 = pts[1] - pts[0]
    d02 = pts[2] - pts[0]
    cross = d01 / np.linalg.norm(d01) - d02 / np.linalg.norm(d02) * np.sign(d01 @ d02)
    assert np.linalg.norm(cross) <= 1e-12


def test_sample_points_plane_has_pca_rank_two():
    ca = construct_relu_attractor(p=4, z=2, m=2, seed=14)
    pts = sample_attractor_points(ca, 100, seed=2)
    centered = pts - pts.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    assert s[1] / s[0] > 1e-3
    assert s[2] / s[0] <= 1e-10


def test_point_at_zero_coefficients():
    ca = construct_relu_attractor(p=3, z=2, m=1, seed=16)
    x = ca.point_at(np.zeros(1))
    assert np.array_equal(x[:3], np.zeros(3))
    assert np.array_equal(x[3:], ca.b_Z)


def test_sampled_points_pass_residual_test():
    ca = construct_relu_attractor(p=6, z=3, m=2, seed=18)
    for x in sample_attractor_points(ca, 25, seed=3):
        assert np.linalg.norm(eval_field(ca.sys, x)) <= 1e-12


def test_rejects_degenerate_requests():
    with pytest.raises(ValueError):
        construct_relu_attractor(p=3, z=1, m=0, seed=0)
    with pytest.raises(ValueError):
        construct_relu_attractor(p=2, z=1, m=3, seed=0)
    with pytest.raises(ValueError):
        construct_relu_attractor(p=2, z=0, m=1, seed=0)
    with pytest.raises(ValueError):
        sample_attractor_points(hand_line_instance(), 0, seed=0)


@pytest.mark.parametrize("c_max", [float("nan"), float("inf"), 0.0, -1.0])
def test_rejects_c_max_that_is_not_finite_and_positive(c_max):
    with pytest.raises(ValueError, match="c_max must be a finite number > 0"):
        construct_relu_attractor(p=3, z=1, m=1, seed=0, c_max=c_max)
    ca = construct_relu_attractor(p=3, z=1, m=1, seed=0)
    with pytest.raises(ValueError, match="c_max must be a finite number > 0"):
        ConstructedAttractor(sys=ca.sys, p=ca.p, z=ca.z, m=ca.m, basis=ca.basis,
                             W_ZP=ca.W_ZP, b_Z=ca.b_Z, c_max=c_max)


def test_w_zp_row_scaling_keeps_dimension():
    base = construct_relu_attractor(p=4, z=2, m=2, seed=20, c_max=5.0)
    scale = 5.0
    W_ZP = scale * base.W_ZP
    pos = np.clip(W_ZP @ base.basis, 0.0, None).sum(axis=1)
    b_Z = -(base.c_max * pos + 1.0)
    W = base.sys.W.copy()
    W[4:, :4] = W_ZP
    b = base.sys.b.copy()
    b[4:] = b_Z
    sys2 = make_system(W=W, A=np.eye(6), b=b, activation=Activation.relu,
                       form=SystemForm.post_activation)
    ca2 = ConstructedAttractor(sys=sys2, p=4, z=2, m=2, basis=base.basis,
                               W_ZP=W_ZP, b_Z=b_Z, c_max=base.c_max)
    x1 = base.point_at([2.0, 1.0])
    x2 = ca2.point_at([2.0, 1.0])
    assert attractor_dimension(base.sys, x1) == attractor_dimension(sys2, x2) == 2


def test_verification_reports_failing_sample():
    ca = construct_relu_attractor(p=3, z=2, m=1, seed=22)
    # inconsistent ground truth: shifted b_Z no longer matches the system
    broken = ConstructedAttractor(sys=ca.sys, p=3, z=2, m=1, basis=ca.basis,
                                  W_ZP=ca.W_ZP, b_Z=ca.b_Z + 0.1, c_max=ca.c_max)
    report = verify_construction(broken, n_samples=5, seed=0)
    assert not report.passed
    assert any(check == "residual" for _, check, _ in report.failures)


def test_constructed_json_round_trip(tmp_path):
    ca = construct_relu_attractor(p=5, z=2, m=2, seed=24)
    path = tmp_path / "system.json"
    save_constructed(ca, path)
    loaded = load_constructed(path)
    assert np.array_equal(loaded.sys.W, ca.sys.W)
    assert np.array_equal(loaded.basis, ca.basis)
    assert np.array_equal(loaded.b_Z, ca.b_Z)
    assert loaded.m == ca.m and loaded.c_max == ca.c_max
    d = constructed_to_dict(ca)
    assert set(d["ground_truth"]) == {"p", "z", "m", "basis", "W_ZP", "b_Z", "c_max"}
    with pytest.raises(ValueError):
        constructed_from_dict({"n": 2})


def test_dimension_recovered_across_family():
    # m in {1, 2, 3} over a spread of total dimensions n in [4, 12]
    cases = [(3, 1, 1), (4, 2, 1), (5, 4, 1), (4, 2, 2), (6, 3, 2),
             (8, 4, 2), (4, 1, 3), (6, 4, 3), (8, 4, 3)]
    for p, z, m in cases:
        ca = construct_relu_attractor(p, z, m, seed=p * 13 + z)
        x = ca.point_at(np.full(m, 0.5 * ca.c_max))
        assert attractor_dimension(ca.sys, x) == m


def test_project_recovers_sampled_points():
    ca = construct_relu_attractor(p=6, z=4, m=2, seed=26)
    for x in sample_attractor_points(ca, 10, seed=4):
        foot, dist = ca.project(x)
        assert dist <= 1e-10
        assert np.linalg.norm(foot - x) <= 1e-10


def reference_verification(ca, n_samples, seed):
    """verify_construction one sample at a time, as it was before its stacks:
    (max_residual, ranks, zero_eig_counts, max_nonzero_realpart, failures)."""
    rng = np.random.default_rng(seed)
    failures, residuals, ranks, zero_counts, max_re = [], [], [], [], -np.inf
    for i in range(n_samples):
        x = ca.point_at(rng.uniform(0.0, ca.c_max, size=ca.m))
        residuals.append(np.linalg.norm(eval_field(ca.sys, x)))
        if residuals[i] > 1e-12:
            failures.append((i, "residual", float(residuals[i])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KinkWarning)
            report = svd_spectrum(residual_jacobian(ca.sys, x))
        ranks.append(report.numerical_rank)
        if ranks[i] != ca.n - ca.m:
            failures.append((i, "rank", ranks[i]))
        _, near_zero = _boundary_masks(ca.sys, report)
        zero_counts.append(int(near_zero.sum()))
        if zero_counts[i] != ca.m:
            failures.append((i, "zero_eigs", zero_counts[i]))
        rest = report.eigenvalues[~near_zero]
        if rest.size:
            worst = float(rest.real.max())
            max_re = max(max_re, worst)
            if worst >= 0.0:
                failures.append((i, "negative_eigs", worst))
    return float(max(residuals)), ranks, zero_counts, float(max_re), tuple(failures)


def broken_instance():
    ca = construct_relu_attractor(p=3, z=2, m=1, seed=22)
    return ConstructedAttractor(sys=ca.sys, p=3, z=2, m=1, basis=ca.basis,
                                W_ZP=ca.W_ZP, b_Z=ca.b_Z + 0.1, c_max=ca.c_max)


@pytest.mark.parametrize("stack", [1, 3, construct._STACK])
def test_stacked_verification_matches_one_sample_at_a_time(monkeypatch, stack):
    # 37 and 23 samples leave a part-filled last block at every stack size
    monkeypatch.setattr(construct, "_STACK", stack)
    cases = [(construct_relu_attractor(24, 16, 3, seed=subseed(45, 0)), 37, subseed(45, 1)),
             (broken_instance(), 23, 0)]
    for ca, n_samples, seed in cases:
        report = verify_construction(ca, n_samples=n_samples, seed=seed)
        got = (report.max_residual, report.ranks.tolist(), report.zero_eig_counts.tolist(),
               report.max_nonzero_realpart, report.failures)
        assert got == reference_verification(ca, n_samples, seed)
    assert not report.passed


def test_stacked_points_match_point_at_bitwise():
    for p, z, m in SHAPES + [(24, 16, 3), (1, 1, 1)]:
        ca = construct_relu_attractor(p, z, m, seed=p + z + m)
        cs = np.random.default_rng(m).uniform(0.0, ca.c_max, size=(9, m))
        cs[0] = 0.0
        want = np.array([np.concatenate([ca.basis @ c, ca.W_ZP @ (ca.basis @ c) + ca.b_Z])
                         for c in cs])
        assert ca._points_at(cs).tobytes() == want.tobytes()
        assert np.array([ca.point_at(c) for c in cs]).tobytes() == want.tobytes()


def test_verification_warns_once_per_sample_on_a_kink(monkeypatch):
    # coefficient 0 puts a whole block of x_P on the relu kink; the samples
    # drawn at these indices get it, over several blocks of samples
    kinked, drawn = {1, 4, 17, 30}, []
    make_rng = np.random.default_rng

    class KinkingRng:
        def __init__(self, seed):
            self.rng = make_rng(seed)

        def uniform(self, low, high, size):
            c = self.rng.uniform(low, high, size)
            for row in c:
                if len(drawn) in kinked:
                    row[0] = 0.0
                drawn.append(row)
            return c

    ca = construct_relu_attractor(24, 16, 3, seed=subseed(45, 0))
    monkeypatch.setattr(np.random, "default_rng", KinkingRng)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        verify_construction(ca, n_samples=37, seed=1)
    assert len(drawn) == 37
    kinks = [w for w in caught if issubclass(w.category, KinkWarning)]
    assert len(kinks) == len(kinked) == len(caught)
    # named at verify_construction, as residual_jacobian named its caller
    assert {w.filename for w in kinks} == {construct.__file__}
