"""The numpy identities the stacked kernels rest on, each on the shapes attrakit runs.

The Levenberg-Marquardt search, the reports and the construction check
stack many points into one numpy call and still give each point the bits
of its own one-point call. Each test here pins one such identity, so a
numpy or BLAS upgrade that breaks one fails here by name, and not only as
a moved output hash.
"""

import numpy as np
import pytest

from attrakit.cli import subseed
from attrakit.construct import construct_relu_attractor
from attrakit.dynsys import Activation, SystemForm, make_system
from attrakit.equilibria import _bound_residual


def stacked_case(name):
    """(W, states, residuals, Jacobians) of a constructed n = 40 relu system or a 3-D tanh one."""
    rng = np.random.default_rng(5)
    if name == "n40":
        sys1 = construct_relu_attractor(24, 16, 3, seed=subseed(601, 0)).sys
    else:
        sys1 = make_system(W=[[1.0, 0.1, 0.0], [0.1, 1.0, 0.05], [0.0, 0.05, 1.0]],
                           A=0.5 * np.eye(3), b=[0.0, 0.01, -0.02],
                           activation=Activation.tanh, form=SystemForm.pre_activation)
    X = rng.uniform(-5.0, 5.0, (16, sys1.n))
    X[3] = 0.0  # relu kinks: zero columns and -0 entries in J
    F, DF = _bound_residual(sys1)
    return sys1.W, X, F(X), DF(X)


CASES = ["n40", "tanh3"]


@pytest.mark.parametrize("name", CASES)
def test_stacked_matmul_by_a_column_is_one_gemv_per_row(name):
    W, X, _, _ = stacked_case(name)
    got = np.matmul(W, X[:, :, None])[:, :, 0]
    assert all(g.tobytes() == W.dot(x).tobytes() for g, x in zip(got, X))


@pytest.mark.parametrize("name", CASES)
def test_stacked_normal_matrix_and_gradient_match_one_matrix_each(name):
    _, _, R, J = stacked_case(name)
    for rows in (slice(None), np.array([0, 3, 4, 9, 15])):
        Jt = J[rows].transpose(0, 2, 1)
        JtJ = np.matmul(Jt, J[rows])
        g = np.matmul(Jt, R[rows][:, :, None])[:, :, 0]
        for Ji, ri, JtJi, gi in zip(J[rows], R[rows], JtJ, g):
            assert JtJi.tobytes() == (Ji.T @ Ji).tobytes()
            assert gi.tobytes() == (Ji.T @ ri).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_damped_matrix_by_its_diagonal_matches_the_sum_with_mu_eye(name):
    # adding 0.0 turns an off-diagonal -0 into +0, as adding mu * 0 does
    _, _, _, J = stacked_case(name)
    JtJ = np.matmul(J.transpose(0, 2, 1), J)
    JtJ[:, 0, 1] = -0.0
    mu = 10.0 ** np.arange(-12, 4)
    n = J.shape[1]
    A = JtJ + 0.0
    A.reshape(len(A), n * n)[:, ::n + 1] += mu[:, None]
    for Ai, JtJi, mui in zip(A, JtJ, mu):
        assert Ai.tobytes() == (JtJi + mui * np.eye(n)).tobytes()


@pytest.mark.parametrize("name", CASES)
def test_stacked_solve_matches_one_system_each(name):
    _, _, R, J = stacked_case(name)
    n = J.shape[1]
    JtJ = np.matmul(J.transpose(0, 2, 1), J)
    g = np.matmul(J.transpose(0, 2, 1), R[:, :, None])[:, :, 0]
    mu = 10.0 ** np.arange(-12, 4)
    A = JtJ + mu[:, None, None] * np.eye(n)
    got = np.linalg.solve(A, -g[:, :, None])[:, :, 0]
    assert all(s.tobytes() == np.linalg.solve(a, -gi).tobytes()
               for s, a, gi in zip(got, A, g))


@pytest.mark.parametrize("name", CASES)
def test_row_norms_by_vecdot_match_linalg_norm(name):
    _, X, R, _ = stacked_case(name)
    for rows in (R, X, X - X[5]):
        assert np.sqrt(np.vecdot(rows, rows)).tolist() == [
            float(np.linalg.norm(r)) for r in rows]


@pytest.mark.parametrize("name", CASES)
def test_stacked_svd_and_eigvals_match_one_matrix_each(name):
    _, _, _, J = stacked_case(name)
    s, eig = np.linalg.svd(J, compute_uv=False), np.linalg.eigvals(J)
    for Ji, si, ei in zip(J, s, eig):
        assert si.tobytes() == np.linalg.svd(Ji, compute_uv=False).tobytes()
        assert ei.astype(complex).tobytes() == np.linalg.eigvals(Ji).astype(complex).tobytes()


def test_one_uniform_draw_of_k_rows_matches_k_draws():
    one, many = np.random.default_rng(8), np.random.default_rng(8)
    got = one.uniform(0.0, 10.0, size=(37, 3))
    assert got.tobytes() == np.array([many.uniform(0.0, 10.0, size=3)
                                      for _ in range(37)]).tobytes()
