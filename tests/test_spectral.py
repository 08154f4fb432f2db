import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.cli import subseed
from attrakit.construct import construct_relu_attractor
from attrakit.equilibria import find_equilibria, residual_jacobian
from attrakit.probe import TinyNet, _logit_spectra
from attrakit.spectral import (
    UndefinedMetricError,
    _row_cv,
    _row_gap,
    _row_rank,
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


# per-row references: the formulas the row functions replaced, the mean squared as a product
def reference_rank(s, rel_tol):
    return int(np.count_nonzero(s > rel_tol * s[0])) if s[0] > 0.0 else 0


def reference_cv(s):
    mean = float(s.mean())
    return float(s.var() / (mean * mean)) if mean > 0.0 else 0.0


def reference_gap(s):
    if s.size < 2:
        return 1.0
    if np.any(s[1:] == 0.0):
        return float("inf")
    return float(np.max(s[:-1] / s[1:]))


def assert_rows_match_reference(S, rel_tol=1e-8):
    ranks, cvs, gaps = _row_rank(S, rel_tol), _row_cv(S), _row_gap(S)
    assert ranks.shape == cvs.shape == gaps.shape == (S.shape[0],)
    assert ranks.tolist() == [reference_rank(s, rel_tol) for s in S]
    assert cvs.tolist() == [reference_cv(s) for s in S]
    assert gaps.tolist() == [reference_gap(s) for s in S]


@pytest.fixture(scope="module")
def seed_601_jacobians():
    # the kept points of `construct --p 24 --z 16 --m 3 --seed 601`,
    # `analyze --box -5 5 --starts 256 --seed 601`
    ca = construct_relu_attractor(p=24, z=16, m=3, seed=subseed(601, 0))
    reports = find_equilibria(ca.sys, box=(-5.0, 5.0), n_starts=256, seed=subseed(601, 2))
    assert len(reports) == 140
    return np.array([residual_jacobian(ca.sys, r.point) for r in reports]), reports


def test_row_statistics_match_per_row_reference_on_kept_jacobians(seed_601_jacobians):
    J, reports = seed_601_jacobians
    S = np.linalg.svd(J, compute_uv=False)
    for rel_tol in (1e-8, 1e-3):
        assert_rows_match_reference(S, rel_tol)
    # the reports were made one matrix at a time, by svd_spectrum
    assert [r.spectrum.numerical_rank for r in reports] == _row_rank(S, 1e-8).tolist()
    assert [r.spectrum.cv for r in reports] == _row_cv(S).tolist()
    assert [r.spectrum.max_gap_ratio for r in reports] == _row_gap(S).tolist()
    assert all(np.array_equal(r.spectrum.singular_values, s) for r, s in zip(reports, S))


def test_row_statistics_match_per_row_reference_on_probe_spectra():
    net = TinyNet.init([12, 128, 64, 3], seed=5)
    X = np.random.default_rng(5).standard_normal((2000, 12))
    S, cvs = _logit_spectra(net, X)
    assert_rows_match_reference(S)
    # the probe's cv is the public one, bit for bit, also on the three rows
    # (1217, 1781, 1833) where squaring the mean with pow rounds differently
    assert cvs.tolist() == [cv_metric(s) for s in S]
    assert sum(float(s.var() / float(s.mean()) ** 2) != cv for s, cv in zip(S, cvs)) == 3


# a probe spectrum whose cv rounds differently when the mean is squared by pow
POW_SPLIT_SVS = [1.5274803907900107, 0.8745226679828718, 0.5599104674192902]


def test_cv_squares_the_mean_as_a_product():
    assert cv_metric(POW_SPLIT_SVS) == 0.16659495650974934
    assert _row_cv(np.array([POW_SPLIT_SVS]))[0] == 0.16659495650974934
    mean = float(np.mean(POW_SPLIT_SVS))
    assert float(np.var(POW_SPLIT_SVS) / mean**2) == 0.16659495650974937


@pytest.mark.parametrize("S, rank, cv, gap", [
    ([[0.0, 0.0, 0.0]], 0, 0.0, float("inf")),               # zero matrix
    ([[2.0]], 1, 0.0, 1.0),                                  # one column
    ([[0.0]], 0, 0.0, 1.0),
    ([[4.0, 2.0, 0.0, 0.0]], 2, 2.75 / 2.25, float("inf")),  # trailing zeros
    ([[3.0, 2.0, 1.0]], 3, 2 / 12, 2.0),                     # every value above the cut
    ([[1.0, 0.5, 1e-9]], 2, reference_cv(np.array([1.0, 0.5, 1e-9])), 0.5 / 1e-9),
])
def test_row_statistics_edge_rows(S, rank, cv, gap):
    S = np.array(S)
    assert _row_rank(S, 1e-8).tolist() == [rank]
    assert _row_cv(S).tolist() == [cv]
    assert _row_gap(S).tolist() == [gap]
    assert_rows_match_reference(S)


def test_row_statistics_with_no_value_above_the_cut():
    # rel_tol >= 1 leaves even the largest value at the cut
    assert _row_rank(np.array([[2.0, 1.0], [1.0, 1.0]]), 1.0).tolist() == [0, 0]


@pytest.mark.parametrize("r", [1, 3])
def test_row_statistics_of_empty_and_single_row_stacks(r):
    empty = np.zeros((0, r))
    for stat in (_row_cv(empty), _row_gap(empty), _row_rank(empty, 1e-8)):
        assert stat.shape == (0,)
    one = np.arange(r, 0, -1, dtype=float)[None]
    assert_rows_match_reference(one)


def test_svd_spectrum_of_stack_of_one_matches_plain_svd():
    M = np.random.default_rng(6).standard_normal((7, 4))
    assert np.array_equal(svd_spectrum(M).singular_values,
                          np.linalg.svd(M, compute_uv=False))


def test_trailing_zero_gap_is_json_null():
    d = spectrum_to_dict(svd_spectrum(np.diag([3.0, 1.0, 0.0])))
    assert d["max_gap_ratio"] is None
    assert d["rank"] == 2


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, float("nan"), float("inf")])
def test_svd_spectrum_rejects_bad_rank_tol(rel_tol):
    with pytest.raises(ValueError, match="positive and finite"):
        svd_spectrum(np.eye(2), rel_tol=rel_tol)


@pytest.mark.parametrize("M", [np.zeros((0, 3)), np.zeros((2, 0)), []])
def test_matrix_without_entries_is_rejected(M):
    for f in (svd_spectrum, svd_factors, eig_spectrum):
        with pytest.raises(ValueError, match="no entries"):
            f(M)
