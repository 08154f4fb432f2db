"""The numpy identities the stacked and batch kernels rest on, each on the shapes attrakit runs.

The Levenberg-Marquardt search, the reports and the construction check
stack many points into one numpy call and still give each point the bits
of its own one-point call. The probe's SGD batch calls the ufuncs behind
ndarray's reductions directly, works in place and takes relu's derivative
as a boolean mask, each with the bits of the plainer form. Each test here
pins one such identity, so a numpy or BLAS upgrade that breaks one fails
here by name, and not only as a moved output hash.
"""

import struct

import numpy as np
import pytest

from attrakit.cli import subseed
from attrakit.construct import construct_relu_attractor
from attrakit.dynsys import _DERIV, Activation, SystemForm, make_system
from attrakit.equilibria import _bound_residual
from attrakit.probe import TinyNet, synth_blobs


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


# ------------------------------------------------------- the probe's SGD batch

def probe_batch(rows):
    """The net, inputs, labels and pre-activations of a batch on the probe's 12-128-64-3 net.

    A benchmark epoch runs batches of 32 rows and ends on one of 24.
    """
    data = synth_blobs(C=3, d=12, per_class=100, separation=6.0, seed=7)
    net = TinyNet.init([12, 128, 64, 3], seed=8)
    pick = np.random.default_rng(9).permutation(data.size)[:rows]
    X, y = data.inputs[pick], data.labels[pick]
    pre, _ = net._forward_cached(X)
    return net, X, y, pre


def with_specials(a, seed):
    """A copy of a with -0, +0, NaN and both infinities planted, one row of them each."""
    a = a.copy()
    rng = np.random.default_rng(seed)
    for value in (-0.0, 0.0, np.nan, np.inf, -np.inf):
        a.flat[rng.choice(a.size, max(1, a.size // 8), replace=False)] = value
    a[1] = -0.0
    a[2] = np.nan
    return a


BATCHES = [32, 24]


@pytest.mark.parametrize("rows", BATCHES)
def test_maximum_reduce_matches_ndarray_max(rows):
    logits = probe_batch(rows)[3][-1]
    for a in (logits, with_specials(logits, 1)):
        assert np.maximum.reduce(a, axis=1, keepdims=True).tobytes() == \
            a.max(axis=1, keepdims=True).tobytes()


@pytest.mark.parametrize("rows", BATCHES)
@np.errstate(invalid="ignore")  # inf - inf and inf * 0 are NaN
def test_add_reduce_matches_ndarray_sum(rows):
    pre = probe_batch(rows)[3]
    e = np.exp(pre[-1] - pre[-1].max(axis=1, keepdims=True))
    assert np.add.reduce(e, axis=1, keepdims=True).tobytes() == \
        e.sum(axis=1, keepdims=True).tobytes()
    # the bias gradients, into views of one flat buffer
    flat = np.empty(sum(z.shape[1] for z in pre))
    lo = 0
    for z in pre + [with_specials(z, 2) for z in pre]:
        out = flat[lo % flat.size:lo % flat.size + z.shape[1]]
        lo += z.shape[1]
        np.add.reduce(z, axis=0, out=out)
        assert out.tobytes() == z.sum(axis=0).tobytes()


@pytest.mark.parametrize("rows", BATCHES)
def test_reduce_loss_matches_the_negated_mean(rows):
    _, _, y, pre = probe_batch(rows)
    index = np.arange(rows)
    for logits in (pre[-1], 40.0 * pre[-1], with_specials(pre[-1], 3)):
        with np.errstate(invalid="ignore"):
            shifted = logits - logits.max(axis=1, keepdims=True)
            total = np.exp(shifted).sum(axis=1, keepdims=True)
            want = float(-(shifted - np.log(total))[index, y].mean())
            got = -float(np.add.reduce(shifted[index, y] - np.log(total[:, 0]))) / rows
        assert struct.pack("<d", got) == struct.pack("<d", want)


@pytest.mark.parametrize("rows", BATCHES)
def test_in_place_bias_and_softmax_match_their_copies(rows):
    net, X, _, pre = probe_batch(rows)
    a = X
    for W, b, z in zip(net.weights, net.biases, pre):
        got = a @ W.T
        got += b
        assert got.tobytes() == (a @ W.T + b).tobytes()
        a = np.maximum(z, 0.0)
    e = np.exp(pre[-1] - pre[-1].max(axis=1, keepdims=True))
    total = e.sum(axis=1, keepdims=True)
    want = e / total
    e /= total
    assert e.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", BATCHES)
@np.errstate(invalid="ignore")  # inf - inf and inf * 0 are NaN
def test_relu_mask_product_matches_the_product_with_np_where(rows):
    net, _, _, pre = probe_batch(rows)
    rng = np.random.default_rng(10)
    for k, z in enumerate(pre[:-1]):
        p = with_specials(z, 4 + k)
        d = with_specials(rng.standard_normal(z.shape), 6 + k)
        want = d * np.where(p > 0.0, 1.0, 0.0)
        assert (d * (p > 0.0)).tobytes() == want.tobytes()
        assert (d * _DERIV[Activation.relu](p)).tobytes() == want.tobytes()
        d *= p > 0.0
        assert d.tobytes() == want.tobytes()
        assert Activation.relu.deriv(p).tobytes() == np.where(p > 0.0, 1.0, 0.0).tobytes()
    # the stacks the probe spectra and the attractor's Jacobians multiply by it
    p = with_specials(rng.standard_normal((96, 1, 64)), 8)
    J = with_specials(rng.standard_normal((96, 3, 64)), 9)
    want = J * np.where(p > 0.0, 1.0, 0.0)
    assert np.multiply(J, p > 0.0, out=J).tobytes() == want.tobytes()
    W = with_specials(rng.standard_normal((40, 40)), 11)
    p = with_specials(rng.standard_normal((16, 40, 1)), 12)
    assert ((p > 0.0) * W).tobytes() == (np.where(p > 0.0, 1.0, 0.0) * W).tobytes()
