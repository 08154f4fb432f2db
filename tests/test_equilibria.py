import warnings

import numpy as np
import pytest

from attrakit.construct import construct_relu_attractor, sample_attractor_points
from attrakit.dynsys import Activation, SystemForm, make_system
from attrakit.equilibria import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    FunctionalDependence,
    InconsistentWitnessError,
    NotAnEquilibriumError,
    _as_box,
    _bound_residual,
    _newton_refine,
    _uniform_in_box,
    attractor_dimension,
    dimension_from_dependence,
    find_equilibria,
    reports_to_json,
    residual_vector,
    verify_dependence,
)
from attrakit.spectral import spectrum_to_dict, svd_spectrum


def tanh_system():
    return make_system(W=[[1.0]], A=[[0.5]], b=[0.0],
                       activation=Activation.tanh, form=SystemForm.pre_activation)


def bisect_root(f, lo, hi, tol=1e-12):
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo, flo = mid, f(mid)
    return 0.5 * (lo + hi)


def replicated_row_system(n, k, seed):
    """Identity-activation system whose last rows depend on the first k."""
    rng = np.random.default_rng(seed)
    W = np.zeros((n, n))
    W[:k] = rng.standard_normal((k, n))
    b = np.zeros(n)
    b[:k] = rng.standard_normal(k)
    W[k] = W[:k].sum(axis=0)
    b[k] = b[:k].sum()
    for row in range(k + 1, n):
        W[row] = W[0] - W[1]
        b[row] = b[0] - b[1]
    sys1 = make_system(W=W, A=np.zeros((n, n)), b=b,
                       activation=Activation.identity, form=SystemForm.pre_activation)
    witness = np.linalg.lstsq(W, -b, rcond=None)[0]
    return sys1, witness


def test_tanh_equilibria_match_bisection_oracle():
    sys1 = tanh_system()
    x_bar = bisect_root(lambda x: np.tanh(x) - 0.5 * x, 1.0, 3.0)
    assert abs(x_bar - 1.915) < 1e-3
    reports = find_equilibria(sys1, box=(-3.0, 3.0), n_starts=16, seed=0)
    points = sorted(float(r.point[0]) for r in reports)
    assert len(points) == 3
    assert abs(points[0] + x_bar) <= 1e-6
    assert abs(points[1]) <= 1e-6
    assert abs(points[2] - x_bar) <= 1e-6
    by_point = {round(p, 3): r for p, r in
                zip(points, sorted(reports, key=lambda r: r.point[0]))}
    assert by_point[round(-x_bar, 3)].stability == STABLE
    assert by_point[0.0].stability == UNSTABLE
    assert all(r.attractor_dim == 0 for r in reports)


def test_linear_nonsingular_system_has_single_equilibrium_at_origin():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((4, 4))
    A = W + np.eye(4)  # W - A = -I, nonsingular
    sys1 = make_system(W=W, A=A, b=np.zeros(4),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    reports = find_equilibria(sys1, box=(-2.0, 2.0), n_starts=20, seed=3)
    assert len(reports) == 1
    assert np.linalg.norm(reports[0].point) <= 1e-8


def test_reported_equilibria_satisfy_residual_bound_independently():
    ca = construct_relu_attractor(p=4, z=2, m=1, seed=5)
    pts = sample_attractor_points(ca, 30, seed=1)
    box = np.stack([pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0], axis=1)
    reports = find_equilibria(ca.sys, box=box, n_starts=32, seed=7)
    assert reports
    for r in reports:
        assert np.linalg.norm(residual_vector(ca.sys, r.point)) <= 1e-10


def test_constructed_equilibria_lie_on_attractor_set():
    ca = construct_relu_attractor(p=5, z=3, m=2, seed=9)
    pts = sample_attractor_points(ca, 30, seed=2)
    box = np.stack([pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0], axis=1)
    reports = find_equilibria(ca.sys, box=box, n_starts=40, seed=11)
    assert reports
    V = ca.basis
    for r in reports:
        x_P, x_Z = r.point[:ca.p], r.point[ca.p:]
        assert np.linalg.norm(x_Z - (ca.W_ZP @ x_P + ca.b_Z)) <= 1e-8
        assert np.linalg.norm(x_P - V @ (V.T @ x_P)) <= 1e-8
    on_set = [r for r in reports if r.attractor_dim == ca.m]
    assert on_set
    assert all(r.stability == MARGINAL for r in on_set)
    assert all(r.marginal_count == ca.m for r in on_set)
    assert all(ca.project(r.point)[1] <= 1e-6 for r in on_set)


def test_find_equilibria_deterministic():
    ca = construct_relu_attractor(p=4, z=2, m=1, seed=13)
    box = (-4.0, 4.0)
    a = find_equilibria(ca.sys, box=box, n_starts=24, seed=1)
    b = find_equilibria(ca.sys, box=box, n_starts=24, seed=1)
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.point, rb.point)


def test_attractor_dimension_zero_jacobian():
    W = np.eye(3)
    sys1 = make_system(W=W, A=W, b=np.zeros(3),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    assert attractor_dimension(sys1, [0.4, -1.0, 2.0]) == 3


def test_attractor_dimension_constructed_and_isolated():
    ca = construct_relu_attractor(p=2, z=1, m=1, seed=17)
    x = ca.point_at([1.5])
    assert attractor_dimension(ca.sys, x) == 1

    sys_t = tanh_system()
    x_bar = bisect_root(lambda v: np.tanh(v) - 0.5 * v, 1.0, 3.0)
    assert attractor_dimension(sys_t, [x_bar]) == 0
    # full rank confirmed by the finite-difference oracle
    from attrakit.dynsys import jacobian_fd
    assert np.linalg.matrix_rank(jacobian_fd(sys_t, [x_bar])) == 1


def test_attractor_dimension_rejects_non_equilibrium():
    sys_t = tanh_system()
    with pytest.raises(NotAnEquilibriumError) as err:
        attractor_dimension(sys_t, [1.0])
    assert err.value.residual > 1e-8


def test_dimension_invariant_under_orthogonal_conjugation():
    # identity activation so the rotated system is the rotated field
    rng = np.random.default_rng(21)
    n = 6
    G = rng.standard_normal((n, n))
    U, _, Vt = np.linalg.svd(G)
    s = np.array([3.0, 2.0, 1.5, 1.0, 0.0, 0.0])
    M = (U * s) @ Vt
    base = make_system(W=M, A=np.zeros((n, n)), b=np.zeros(n),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    d0 = attractor_dimension(base, np.zeros(n))
    assert d0 == 2
    for _ in range(50):
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rotated = make_system(W=Q @ M @ Q.T, A=np.zeros((n, n)), b=np.zeros(n),
                              activation=Activation.identity,
                              form=SystemForm.pre_activation)
        assert attractor_dimension(rotated, np.zeros(n)) == d0


def test_dimension_invariant_under_coordinate_permutation():
    # permutations commute with any entrywise activation, relu included
    rng = np.random.default_rng(23)
    ca = construct_relu_attractor(p=4, z=2, m=2, seed=25)
    x = ca.point_at([2.0, 3.0])
    n = ca.n
    for _ in range(20):
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        permuted = make_system(W=P @ ca.sys.W @ P.T, A=P @ ca.sys.A @ P.T,
                               b=P @ ca.sys.b, activation=Activation.relu,
                               form=SystemForm.post_activation)
        assert attractor_dimension(permuted, P @ x) == ca.m


def test_functional_dependence_validation():
    with pytest.raises(ValueError):
        FunctionalDependence(coefficients=[0.0, 0.0], independent_count=1)
    with pytest.raises(ValueError):
        FunctionalDependence(coefficients=[1.0, 1.0], independent_count=2)
    with pytest.raises(ValueError):
        FunctionalDependence(coefficients=[0.0], independent_count=0)


def test_verify_dependence_replicated_rows():
    sys1, _ = replicated_row_system(n=3, k=2, seed=31)
    good = FunctionalDependence(coefficients=[1.0, 1.0, -1.0], independent_count=2)
    verdict = verify_dependence(sys1, good, n_samples=64, seed=0)
    assert verdict.holds
    bad = FunctionalDependence(coefficients=[1.0, 0.0, -1.0], independent_count=2)
    verdict = verify_dependence(sys1, bad, n_samples=64, seed=0)
    assert not verdict.holds
    assert verdict.sample is not None
    assert verdict.magnitude > 1e-6


def test_dimension_from_dependence_replicated_rows():
    sys1, witness = replicated_row_system(n=3, k=2, seed=33)
    dep = FunctionalDependence(coefficients=[1.0, 1.0, -1.0], independent_count=2)
    dim = dimension_from_dependence(sys1, dep, witness)
    assert dim == 1
    assert dim == attractor_dimension(sys1, witness)


def test_dimension_from_dependence_relu_region():
    # on the active region the top row of the line system vanishes identically
    W = np.array([[1.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0],
                  [-0.5, 0.0, 0.0]])
    b = np.array([0.0, 0.0, -1.0])
    sys1 = make_system(W=W, A=np.eye(3), b=b,
                       activation=Activation.relu, form=SystemForm.post_activation)
    dep = FunctionalDependence(coefficients=[1.0, 0.0, 0.0], independent_count=2)
    box = np.array([[0.5, 3.0], [0.5, 3.0], [-3.0, -0.5]])
    witness = np.array([2.0, 0.0, -2.0])
    import warnings
    from attrakit.dynsys import KinkWarning
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", KinkWarning)
        dim = dimension_from_dependence(sys1, dep, witness, box=box)
        assert dim == 1
        assert dim == attractor_dimension(sys1, witness)


def test_dimension_from_dependence_inconsistent_witness():
    sys1, witness = replicated_row_system(n=4, k=3, seed=35)
    wrong = FunctionalDependence(coefficients=[1.0, 1.0, 1.0, -1.0], independent_count=2)
    with pytest.raises(InconsistentWitnessError):
        dimension_from_dependence(sys1, wrong, witness)


def test_dimension_from_dependence_rejects_violated_relation():
    sys1, witness = replicated_row_system(n=3, k=2, seed=37)
    bad = FunctionalDependence(coefficients=[1.0, 0.0, -1.0], independent_count=2)
    with pytest.raises(ValueError, match="violated"):
        dimension_from_dependence(sys1, bad, witness)


def test_reports_serialize_to_json_array():
    sys1 = tanh_system()
    reports = find_equilibria(sys1, box=(-3.0, 3.0), n_starts=8, seed=0)
    payload = reports_to_json(reports)
    assert isinstance(payload, list)
    for item in payload:
        assert set(item) >= {"point", "residual", "attractor_dim", "stability",
                             "marginal_count", "spectrum"}


def test_discrete_map_fixed_points():
    # x(t+1) = 0.5 x has the origin as its unique, stable fixed point
    sys1 = make_system(W=[[0.0]], A=[[-0.5]], b=[0.0],
                       activation=Activation.identity, form=SystemForm.discrete_map)
    reports = find_equilibria(sys1, box=(-2.0, 2.0), n_starts=8, seed=0)
    assert len(reports) == 1
    assert abs(reports[0].point[0]) <= 1e-10
    assert reports[0].stability == STABLE
    assert reports[0].attractor_dim == 0


def reference_residual(sys, x):
    """The residual map written out through the checked Activation API."""
    act = sys.activation
    if sys.form is SystemForm.post_activation:
        f = -x + sys.W @ act(x) + sys.b
    else:
        f = act(sys.W @ x + sys.b) - sys.A @ x
    return f - x if sys.form is SystemForm.discrete_map else f


def reference_residual_jacobian(sys, x):
    post = sys.form is SystemForm.post_activation
    d = sys.activation.deriv(x if post else sys.W @ x + sys.b)
    J = sys.W * d - np.eye(sys.n) if post else d[:, None] * sys.W - sys.A
    return J - np.eye(sys.n) if sys.form is SystemForm.discrete_map else J


def reference_newton_refine(sys, x0, tol, max_iter=100, max_halvings=30):
    """Damped Newton with one residual and Jacobian evaluation per call, as a reference."""
    x = np.array(x0, dtype=float)
    pinv_used = False
    r = reference_residual(sys, x)
    rn = float(np.linalg.norm(r))
    for _ in range(max_iter):
        if rn <= tol:
            return x, True, pinv_used
        J = reference_residual_jacobian(sys, x)
        s = np.linalg.svd(J, compute_uv=False)
        if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
            step = -np.linalg.lstsq(J, r, rcond=1e-10)[0]
            pinv_used = True
        else:
            step = np.linalg.solve(J, -r)
        if not np.all(np.isfinite(step)):
            return x, rn <= tol, pinv_used
        alpha = 1.0
        accepted = False
        for _ in range(max_halvings + 1):
            xn = x + alpha * step
            r_new = reference_residual(sys, xn)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < rn:
                x, r, rn = xn, r_new, rn_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return x, rn <= tol, pinv_used


def newton_cases():
    rng = np.random.default_rng(41)
    cases = []
    for form in SystemForm:
        for activation in (Activation.relu, Activation.tanh):
            W = rng.standard_normal((4, 4))
            sys4 = make_system(W=W, A=np.eye(4), b=0.3 * rng.standard_normal(4),
                               activation=activation, form=form)
            cases.append((sys4, (-3.0, 3.0), 32))
    # dx/dt = -x + relu(x) + 1 has no zero, and a zero Jacobian for x > 0
    stuck = make_system(W=[[1.0]], A=[[1.0]], b=[1.0],
                        activation=Activation.relu, form=SystemForm.post_activation)
    cases.append((stuck, (-3.0, 3.0), 8))
    ca = construct_relu_attractor(p=5, z=3, m=2, seed=9)
    pts = sample_attractor_points(ca, 30, seed=2)
    box = np.stack([pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0], axis=1)
    cases.append((ca.sys, box, 40))
    return cases


def test_bound_newton_matches_per_call_reference():
    outcomes = []
    for sys1, box, n_starts in newton_cases():
        F, DF = _bound_residual(sys1)
        starts = _uniform_in_box(_as_box(box, sys1.n), n_starts, 11)
        for x0 in starts:
            x, ok, pinv = _newton_refine(F, DF, x0, 1e-10)
            x_ref, ok_ref, pinv_ref = reference_newton_refine(sys1, x0, 1e-10)
            assert np.array_equal(x, x_ref)
            assert (ok, pinv) == (ok_ref, pinv_ref)
            outcomes.append((sys1.form, ok, pinv))
        reports = find_equilibria(sys1, box, n_starts, seed=11)
        for r in reports:
            assert r.residual == float(np.linalg.norm(reference_residual(sys1, r.point)))
            J = reference_residual_jacobian(sys1, r.point)
            assert spectrum_to_dict(r.spectrum) == spectrum_to_dict(svd_spectrum(J))
    # every branch was taken: converged and not, pinv step and plain solve
    assert {(ok, pinv) for _, ok, pinv in outcomes} == {
        (True, True), (True, False), (False, True), (False, False)}
    assert {form for form, ok, _ in outcomes if ok} == set(SystemForm)


def test_find_equilibria_is_silent_on_relu_kinks():
    ca = construct_relu_attractor(p=5, z=3, m=2, seed=9)
    pts = sample_attractor_points(ca, 30, seed=2)
    box = np.stack([pts.min(axis=0) - 1.0, pts.max(axis=0) + 1.0], axis=1)
    # the line system's equilibria have x_2 = 0, the kink, up to the residual tolerance
    W = np.array([[1.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0],
                  [-0.5, 0.0, 0.0]])
    line = make_system(W=W, A=np.eye(3), b=[0.0, 0.0, -1.0],
                       activation=Activation.relu, form=SystemForm.post_activation)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_equilibria(ca.sys, box=box, n_starts=40, seed=11)
        on_kink = find_equilibria(line, box=(-3.0, 3.0), n_starts=16, seed=0)
    assert on_kink
    assert any(r.point[1] == 0.0 for r in on_kink)


@pytest.mark.parametrize("box", [(float("nan"), 5.0), (-5.0, float("inf")),
                                 [[-1.0, 1.0], [float("-inf"), 1.0]]])
def test_non_finite_box_is_rejected(box):
    sys2 = make_system(W=np.eye(2), A=np.eye(2), b=np.zeros(2),
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    with pytest.raises(ValueError, match="box bounds must be finite"):
        find_equilibria(sys2, box=box, n_starts=4)
    dep = FunctionalDependence(coefficients=[1.0, -1.0], independent_count=1)
    with pytest.raises(ValueError, match="box bounds must be finite"):
        verify_dependence(sys2, dep, box=box)
