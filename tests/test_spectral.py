import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.spectral import (
    UndefinedMetricError,
    cv_metric,
    eig_spectrum,
    max_gap_ratio,
    numerical_rank,
    spectrum_to_dict,
    svd_factors,
    svd_spectrum,
)

# the worked singular-value example quoted alongside the cv definition
QUOTED_SVS = [30.03, 8.63, 7.48, 5.31, 4.13, 3.09, 2.95, 2.69, 1.80]

positive_lists = st.lists(st.floats(min_value=0.01, max_value=100.0),
                          min_size=1, max_size=12)


def test_identity_spectrum():
    report = svd_spectrum(np.eye(3))
    assert np.allclose(report.singular_values, [1.0, 1.0, 1.0])
    assert report.cv == 0.0
    assert report.numerical_rank == 3
    assert report.max_gap_ratio == 1.0


def test_diagonal_spectrum_sorted():
    report = svd_spectrum(np.diag([3.0, 4.0]))
    assert np.array_equal(report.singular_values, [4.0, 3.0])


def test_svd_against_gram_matrix_oracle():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((8, 5))
    evals = np.linalg.eigvalsh(M.T @ M)[::-1]
    oracle = np.sqrt(np.clip(evals, 0.0, None))
    report = svd_spectrum(M)
    assert np.max(np.abs(report.singular_values - oracle)) <= 1e-9


def test_svd_factor_contract():
    rng = np.random.default_rng(1)
    for shape in [(6, 6), (10, 4), (3, 12)]:
        M = rng.standard_normal(shape)
        U, s, Vt = svd_factors(M)
        rec = (U * s) @ Vt
        assert np.linalg.norm(rec - M) <= 1e-10 * np.linalg.norm(M)
        k = s.shape[0]
        assert np.linalg.norm(U.T @ U - np.eye(k)) <= 1e-10
        assert np.linalg.norm(Vt @ Vt.T - np.eye(k)) <= 1e-10


def test_eig_diagonal_and_rotation():
    assert sorted(eig_spectrum(np.diag([2.0, -1.0])).real) == [-1.0, 2.0]
    eig = eig_spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert np.allclose(sorted(eig.imag), [-1.0, 1.0])
    assert np.allclose(eig.real, 0.0)


def test_eig_of_conjugated_known_spectrum():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    M = Q @ np.diag([1.0, 0.5]) @ Q.T
    eig = np.sort(eig_spectrum(M).real)
    assert np.max(np.abs(eig - [0.5, 1.0])) <= 1e-10
    assert np.max(np.abs(eig_spectrum(M).imag)) <= 1e-10


def test_eig_trace_det_identities():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = int(rng.integers(2, 17))
        M = rng.standard_normal((n, n))
        eig = eig_spectrum(M)
        tr = np.trace(M)
        assert abs(eig.sum().real - tr) <= 1e-8 * (1.0 + abs(tr))
        assert abs(eig.sum().imag) <= 1e-8 * (1.0 + abs(tr))
        det = np.linalg.det(M)
        prod = np.prod(eig)
        assert abs(prod - det) <= 1e-6 * max(abs(det), abs(prod))


def test_eig_rejects_non_square():
    with pytest.raises(ValueError):
        eig_spectrum(np.ones((2, 3)))


def test_numerical_rank_cases():
    assert numerical_rank([1.0, 1.0, 1.0], 1e-8) == 3
    assert numerical_rank([1.0, 1e-12, 0.0], 1e-8) == 1
    assert numerical_rank([0.0, 0.0], 1e-8) == 0
    with pytest.raises(ValueError):
        numerical_rank([1.0, 2.0], 1e-8)
    with pytest.raises(ValueError):
        numerical_rank([2.0, -1.0], 1e-8)
    with pytest.raises(ValueError):
        numerical_rank([1.0], 0.0)
    for rel_tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            numerical_rank([1.0], rel_tol)


@given(values=positive_lists, c=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_rank_scale_equivariance(values, c):
    s = np.sort(np.asarray(values))[::-1]
    assert numerical_rank(c * s) == numerical_rank(s)


def test_cv_metric_trivial_and_two_point():
    assert cv_metric([5.0, 5.0, 5.0]) == 0.0
    assert cv_metric([2.0, 0.0]) == 1.0


def test_cv_metric_quoted_list_brute_force():
    # independent oracle: explicit sums, population convention
    n = len(QUOTED_SVS)
    mean = sum(QUOTED_SVS) / n
    var = sum((v - mean) ** 2 for v in QUOTED_SVS) / n
    expected = var / mean**2
    assert abs(cv_metric(QUOTED_SVS) - expected) <= 1e-12
    # the prose alongside the list reports about 1.2; the population
    # convention gives 1.278
    assert abs(expected - 1.278) <= 1e-3


def test_cv_metric_errors():
    with pytest.raises(UndefinedMetricError):
        cv_metric([])
    with pytest.raises(UndefinedMetricError):
        cv_metric([0.0, 0.0])


@given(values=positive_lists, c=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=80, deadline=None)
def test_cv_scale_invariance(values, c):
    v = np.asarray(values)
    assert abs(cv_metric(c * v) - cv_metric(v)) <= 1e-12


def test_transpose_has_same_singular_values():
    rng = np.random.default_rng(4)
    for shape in [(5, 5), (7, 3), (2, 9)]:
        M = rng.standard_normal(shape)
        a = svd_spectrum(M).singular_values
        b = svd_spectrum(M.T).singular_values
        assert np.max(np.abs(a - b)) <= 1e-10


def test_symmetric_eigenvalue_magnitudes_equal_singular_values():
    rng = np.random.default_rng(5)
    M = rng.standard_normal((6, 6))
    M = 0.5 * (M + M.T)
    report = svd_spectrum(M)
    mags = np.sort(np.abs(report.eigenvalues))[::-1]
    assert np.max(np.abs(mags - report.singular_values)) <= 1e-9


def test_max_gap_ratio_rules():
    assert max_gap_ratio([4.0]) == 1.0
    assert max_gap_ratio([4.0, 2.0, 1.0]) == 2.0
    assert max_gap_ratio([1.0, 0.0]) == float("inf")


def test_zero_matrix_spectrum():
    report = svd_spectrum(np.zeros((3, 3)))
    assert report.numerical_rank == 0
    assert report.cv == 0.0


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        svd_spectrum(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_spectrum_json_schema():
    report = svd_spectrum(np.diag([2.0, 1.0]))
    d = spectrum_to_dict(report)
    assert set(d) == {"singular_values", "cv", "rank", "tol", "max_gap_ratio"}
    assert d["rank"] == 2
    assert d["tol"] == 1e-8
