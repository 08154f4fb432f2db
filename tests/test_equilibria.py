import functools
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from attrakit import _forked, equilibria
from attrakit.cli import subseed
from attrakit.construct import construct_relu_attractor, sample_attractor_points
from attrakit.dynsys import Activation, KinkWarning, SystemForm, make_system
from attrakit.equilibria import (
    MARGINAL,
    STABLE,
    UNSTABLE,
    FunctionalDependence,
    InconsistentWitnessError,
    NotAnEquilibriumError,
    _STOP_MAX_ITER,
    _STOP_STALL,
    _STOP_TOL,
    _STOP_TRIES,
    _as_box,
    _bound_residual,
    _lockstep_lm,
    _start_table,
    _uniform_in_box,
    attractor_dimension,
    dimension_from_dependence,
    find_equilibria,
    reports_to_json,
    residual_jacobian,
    residual_vector,
    verify_dependence,
)
from attrakit.simulate import sine_map_system
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


def per_call(f, sys1):
    """A stacked closure made of one public per-point call per row."""
    return lambda X: np.array([f(sys1, x) for x in X])


def test_bound_newton_matches_per_call_reference():
    outcomes = []
    for sys1, box, n_starts in newton_cases():
        F, DF = _bound_residual(sys1)
        starts = _uniform_in_box(_as_box(box, sys1.n), n_starts, 11)
        table = _lockstep_lm(F, DF, starts, 1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KinkWarning)
            table_ref = _lockstep_lm(per_call(residual_vector, sys1),
                                     per_call(residual_jacobian, sys1), starts, 1e-10)
        assert table.tobytes() == table_ref.tobytes()
        outcomes += [(sys1.form, sys1.activation, ok) for ok in table[:, sys1.n] == 1.0]
        reports = find_equilibria(sys1, box, n_starts, seed=11)
        for r in reports:
            assert r.residual == float(np.linalg.norm(reference_residual(sys1, r.point)))
            J = reference_residual_jacobian(sys1, r.point)
            assert spectrum_to_dict(r.spectrum) == spectrum_to_dict(svd_spectrum(J))
            assert r.pinv_fallback is False
    # both outcomes are taken, and every form converges with either activation
    assert {ok for *_, ok in outcomes} == {True, False}
    assert {(form, act) for form, act, ok in outcomes if ok} == {
        (form, act) for form in SystemForm for act in (Activation.relu, Activation.tanh)}


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
    assert any(abs(r.point[1]) <= 1e-10 for r in on_kink)
    # a start exactly on the kink evaluates DF there, still without a warning
    F, DF = _bound_residual(line)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (row,) = _lockstep_lm(F, DF, np.array([[2.0, 0.0, 0.5]]), 1e-10)
    assert row[3] == 1.0
    assert np.linalg.norm(residual_vector(line, row[:3])) <= 1e-10


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


def counting_residual(monkeypatch):
    """Make find_equilibria count the rows it passes to its residual and Jacobian.

    The search runs in one range, since a forked range would count in its
    own process.
    """
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 1)
    counts = {"F": 0, "DF": 0}
    bind = _bound_residual

    def counted(sys1):
        F, DF = bind(sys1)

        def F_counted(X):
            counts["F"] += len(X)
            return F(X)

        def DF_counted(X):
            counts["DF"] += len(X)
            return DF(X)
        return F_counted, DF_counted

    monkeypatch.setattr("attrakit.equilibria._bound_residual", counted)
    return counts


def test_search_work_and_yield_on_benchmark_instance(monkeypatch):
    # `construct --p 24 --z 16 --m 3 --seed 15`, `analyze --box -5 5 --starts 256 --seed 15`;
    # backtracking Newton made 378 residual calls per start and kept 21 points on the set
    ca = construct_relu_attractor(p=24, z=16, m=3, seed=subseed(15, 0))
    counts = counting_residual(monkeypatch)
    reports = find_equilibria(ca.sys, box=(-5.0, 5.0), n_starts=256, seed=subseed(15, 2))
    assert counts["F"] / 256 <= 40
    assert counts["DF"] <= counts["F"]
    assert all(r.residual <= 1e-10 for r in reports)
    assert sum(ca.project(r.point)[1] <= 1e-6 for r in reports) >= 21


def test_zero_jacobian_without_equilibrium_stops_quietly(monkeypatch):
    # F(x) = b everywhere: the Jacobian is 0, so every damped step is 0 and rejected
    flat = make_system(W=np.zeros((2, 2)), A=np.zeros((2, 2)), b=[1.0, -0.5],
                       activation=Activation.identity, form=SystemForm.pre_activation)
    counts = counting_residual(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_equilibria(flat, box=(-3.0, 3.0), n_starts=8, seed=0) == []
    # one residual at the start, then one per rejected step of a single iteration
    assert counts == {"F": 8 * 13, "DF": 8}
    table = _start_table(flat, _uniform_in_box(_as_box((-3.0, 3.0), 2), 8, 0), 1e-10)
    assert table[:, 3:].tolist() == [[1.0, _STOP_TRIES, 1.25 ** 0.5, 1e-3 * 10.0 ** 12]] * 8


def test_zero_jacobian_start_converges_iff_residual_within_tol():
    flat = make_system(W=np.zeros((2, 2)), A=np.zeros((2, 2)), b=[0.6, -0.8],
                       activation=Activation.identity, form=SystemForm.pre_activation)
    F, DF = _bound_residual(flat)
    # |F| = 1 everywhere, and no step can lower it
    assert _lockstep_lm(F, DF, np.zeros((1, 2)), 1.0)[0, 2] == 1.0
    assert _lockstep_lm(F, DF, np.zeros((1, 2)), 0.999)[0, 2] == 0.0


@pytest.mark.parametrize("ratio, residual_calls", [(0.99, 6), (0.97, 101)])
def test_stall_stop_needs_ten_percent_over_five_accepted_steps(ratio, residual_calls):
    # a residual that shrinks by `ratio` at each call, so every step is accepted:
    # 0.99**5 > 0.9 stalls after five steps, 0.97**5 < 0.9 runs to the 100-iteration cap
    calls = []

    def F(X):
        calls.append(X)
        return np.full((len(X), 1), ratio ** len(calls))

    (row,) = _lockstep_lm(F, lambda X: np.ones((len(X), 1, 1)), np.zeros((1, 1)), 1e-10)
    assert len(calls) == residual_calls
    reason = _STOP_STALL if ratio ** 5 > 0.9 else _STOP_MAX_ITER
    assert row[1:4].tolist() == [0.0, residual_calls - 1, reason]


S = equilibria._RANGE_MIN_STARTS


def search_case(name):
    """(system, box) of a constructed n = 40 instance or a small n = 3 tanh system."""
    if name == "n40":
        return construct_relu_attractor(p=24, z=16, m=3, seed=subseed(15, 0)).sys, (-5.0, 5.0)
    W = [[1.0, 0.1, 0.0], [0.1, 1.0, 0.05], [0.0, 0.05, 1.0]]
    return make_system(W=W, A=0.5 * np.eye(3), b=[0.0, 0.01, -0.02],
                       activation=Activation.tanh, form=SystemForm.pre_activation), (-3.0, 3.0)


def search_in_ranges(monkeypatch, sys1, box, n_starts, cpus):
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    return find_equilibria(sys1, box=box, n_starts=n_starts, seed=5)


def assert_same_reports(got, want):
    assert [r.point.tobytes() for r in got] == [r.point.tobytes() for r in want]
    assert reports_to_json(got) == reports_to_json(want)


@pytest.mark.parametrize("ranges", [2, 3])
@pytest.mark.parametrize("name", ["n40", "tanh3"])
def test_search_in_ranges_matches_one_range(monkeypatch, forks, name, ranges):
    sys1, box = search_case(name)
    want = search_in_ranges(monkeypatch, sys1, box, 8 * S, 1)
    assert len(want) >= 5 and forks == []
    got = search_in_ranges(monkeypatch, sys1, box, 8 * S, ranges)
    assert len(forks) == ranges - 1
    assert_same_reports(got, want)


@pytest.mark.parametrize("cpus, n_starts, forked", [
    (2, 2 * S - 1, 0), (2, 2 * S, 1), (3, 3 * S - 1, 1), (3, 3 * S, 2),
])
def test_search_forks_only_ranges_of_enough_starts(monkeypatch, forks, cpus, n_starts, forked):
    sys1, box = search_case("tanh3")
    want = search_in_ranges(monkeypatch, sys1, box, n_starts, 1)
    got = search_in_ranges(monkeypatch, sys1, box, n_starts, cpus)
    assert len(forks) == forked
    assert_same_reports(got, want)


@pytest.mark.parametrize("ranges", [2, 3])
def test_search_refines_a_failed_range_again_here(monkeypatch, forks, ranges):
    sys1, box = search_case("n40")
    want = search_in_ranges(monkeypatch, sys1, box, 4 * S, 1)
    parent, refine = os.getpid(), _lockstep_lm

    def failing_in_child(*args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("refinement failed in a forked process")
        return refine(*args, **kwargs)
    monkeypatch.setattr(equilibria, "_lockstep_lm", failing_in_child)
    got = search_in_ranges(monkeypatch, sys1, box, 4 * S, ranges)
    assert len(forks) == ranges - 1
    assert_same_reports(got, want)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_search_raises_the_error_of_one_range(monkeypatch, forks, cpus):
    def failing(*args, **kwargs):
        raise ValueError(f"refinement failed in process {os.getpid()}")
    monkeypatch.setattr(equilibria, "_lockstep_lm", failing)
    sys1, box = search_case("tanh3")
    with pytest.raises(ValueError, match=f"refinement failed in process {os.getpid()}$"):
        search_in_ranges(monkeypatch, sys1, box, 4 * S, cpus)
    assert len(forks) == cpus - 1


@functools.cache
def searched_instance(seed):
    """A constructed n = 40, m = 3 instance and the points a 256-start search keeps."""
    ca = construct_relu_attractor(24, 16, 3, seed=seed)
    return ca, find_equilibria(ca.sys, (-5.0, 5.0), 256, seed)


@pytest.fixture(params=[15, 45, 601])
def constructed_search(request):
    return searched_instance(request.param)


def test_null_vectors_at_on_set_points_lie_in_the_constructed_set(constructed_search):
    # a relu kink may drop null directions from the count, but never adds a
    # direction off the set: the largest sine between the null space and the
    # span of point_at(e_i) - point_at(0) is round-off
    ca, reports = constructed_search
    origin = ca.point_at(np.zeros(ca.m))
    span, _ = np.linalg.qr(np.stack([ca.point_at(e) - origin for e in np.eye(ca.m)], axis=1))
    on_set = [r for r in reports if ca.project(r.point)[1] <= 1e-6 and r.attractor_dim >= 1]
    assert len(on_set) >= 10
    for r in on_set:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", KinkWarning)
            _, _, vt = np.linalg.svd(residual_jacobian(ca.sys, r.point))
        null = vt[ca.n - r.attractor_dim:].T
        assert np.linalg.norm(null - span @ (span.T @ null), 2) <= 1e-10


@pytest.mark.parametrize("case", [15, 45, 601, "tanh2"])
def test_marginal_count_equals_attractor_dim_at_every_kept_point(case):
    # the eigenvalues near the stability boundary and the singular values
    # under the rank cut count the same directions, on the set and off it.
    # tanh2 is tanh(x) - x on the plane: its one equilibrium 0 is isolated,
    # yet the search keeps a cloud of points near it where J is about
    # -1.4e-7 I, above the rank cut; only the link is pinned there, not the
    # cloud, which a stricter convergence test would remove
    if case == "tanh2":
        sys2 = make_system(W=np.eye(2), A=np.eye(2), b=np.zeros(2),
                           activation=Activation.tanh, form=SystemForm.pre_activation)
        reports = find_equilibria(sys2, (-1.0, 1.0), 32, 0)
    else:
        _, reports = searched_instance(case)
        assert len(reports) >= 10
    assert [r.marginal_count for r in reports] == [r.attractor_dim for r in reports]


def test_nilpotent_jacobian_grazes_with_both_rounded_eigenvalues():
    # J = Q N Q^T with N = [[0, 1], [0, 0]]: nullity 1, so a line of
    # equilibria of dim 1, but a double zero eigenvalue. Rounding splits a
    # Jordan block's eigenvalues by about sqrt(eps) * s_max, here to
    # +-1.33e-9, which is still inside the band of 1e-8 * s_max. Equality
    # of marginal_count with dim is not expected here, because the
    # algebraic multiplicity is 2.
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((2, 2)))
    W = np.eye(2) + Q @ np.array([[0.0, 1.0], [0.0, 0.0]]) @ Q.T
    sys2 = make_system(W=W, A=np.eye(2), b=np.zeros(2),
                       activation=Activation.identity, form=SystemForm.post_activation)
    reports = find_equilibria(sys2, (-1.0, 1.0), 4, 0)
    assert reports
    for r in reports:
        assert (r.stability, r.marginal_count, r.attractor_dim) == (MARGINAL, 2, 1)


def scalar_lm(F, DF, x0, tol):
    """The one-start Levenberg-Marquardt that _lockstep_lm replaced, kept as its reference.

    F and DF take one state. Returns the per-start row: the point, then
    converged, iterations, stop reason, final |F| and final mu.
    """
    x = np.array(x0, dtype=float)
    eye = np.eye(x.shape[0])
    r = F(x)
    norms = [float(np.linalg.norm(r))]
    mu = equilibria._LM_MU_START
    iterations, reason = 0, _STOP_MAX_ITER
    for _ in range(equilibria._LM_MAX_ITER):
        if norms[-1] <= 0.1 * tol:
            reason = _STOP_TOL
            break
        J = DF(x)
        iterations += 1
        g, JtJ = J.T @ r, J.T @ J
        for _ in range(equilibria._LM_TRIES):
            xn = x + np.linalg.solve(JtJ + mu * eye, -g)
            r_new = F(xn)
            rn_new = float(np.linalg.norm(r_new))
            if rn_new < norms[-1]:
                x, r = xn, r_new
                norms.append(rn_new)
                mu = max(0.1 * mu, equilibria._LM_MU_FLOOR)
                break
            mu *= 10.0
        else:
            reason = _STOP_TRIES
            break
        steps = equilibria._LM_STALL_STEPS
        if (len(norms) > steps
                and norms[-1] > (1.0 - equilibria._LM_STALL_GAIN) * norms[-1 - steps]):
            reason = _STOP_STALL
            break
    return np.append(x, [norms[-1] <= tol, iterations, reason, norms[-1], mu])


# the starts that "601-planted" puts on the constructed set
PLANTED = [0, 5, 17, 40, 255]


def oracle_case(name):
    """(system, starts) of a constructed n = 40 instance as `analyze` searches
    it at CLI seed 45 or 601, of the 601 search with the PLANTED starts moved
    onto the set, of a 3-D tanh system, or of a discrete sine map."""
    if name in (45, 601, "601-planted"):
        seed = 45 if name == 45 else 601
        ca = construct_relu_attractor(p=24, z=16, m=3, seed=subseed(seed, 0))
        starts = _uniform_in_box(_as_box((-5.0, 5.0), 40), 256, subseed(seed, 2))
        if name == "601-planted":
            starts[PLANTED] = ca._points_at(
                np.random.default_rng(seed).uniform(1.0, ca.c_max, size=(len(PLANTED), 3)))
        return ca.sys, starts
    if name == "tanh3":
        sys1, box = search_case("tanh3")
    else:
        sys1, box = sine_map_system(n=3, seed=4), (-3.0, 3.0)
    return sys1, _uniform_in_box(_as_box(box, 3), 64, 3)


@functools.cache
def oracle_table(name):
    sys1, starts = oracle_case(name)
    F = functools.partial(reference_residual, sys1)
    DF = functools.partial(reference_residual_jacobian, sys1)
    return np.array([scalar_lm(F, DF, x0, 1e-10) for x0 in starts])


@pytest.mark.parametrize("stack", [1, 3, equilibria._STACK])
@pytest.mark.parametrize("name", [45, 601, "tanh3", "sine_map", "601-planted"])
def test_lockstep_table_matches_the_scalar_reference_bit_for_bit(monkeypatch, name, stack):
    # a stack of 1 runs one start at a time; 3 frees and refills JtJ slots
    # at every round; the default is what the search runs. Freed and
    # refilled slots must not warn.
    monkeypatch.setattr(equilibria, "_STACK", stack)
    sys1, starts = oracle_case(name)
    table = _lockstep_lm(*_bound_residual(sys1), starts, 1e-10)
    want = oracle_table(name)
    assert table.tobytes() == want.tobytes()
    if name == "601-planted":
        # |F| is below 5e-15 on the set: these starts stop as they are loaded
        assert np.all(table[PLANTED, 40:43] == [1.0, 0.0, _STOP_TOL])
    # the starts end on both of the stops these searches take, many converged
    if name in (45, 601):
        assert set(table[:, 42]) == {_STOP_TOL, _STOP_STALL}
        assert table[:, 40].sum() >= 100


def test_lockstep_memory_does_not_grow_with_the_starts():
    # only J^T J is held per live start; the state of every start is one row
    sys1, starts = oracle_case(601)
    F, DF = _bound_residual(sys1)
    peaks = []
    for count in (16, 256):
        tracemalloc.start()
        try:
            _lockstep_lm(F, DF, starts[:count], 1e-10)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 2 ** 20


@pytest.mark.parametrize("name", [45, 601])
def test_dedup_keeps_the_points_of_the_pair_loop(name):
    sys1, starts = oracle_case(name)
    table = oracle_table(name)
    converged = sorted((row[:40] for row in table if row[40]), key=tuple)
    kept = []
    for x in converged:
        limit = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        if all(np.linalg.norm(x - y) >= limit for y in kept):
            kept.append(x)
    reports = find_equilibria(sys1, (-5.0, 5.0), 256, subseed(name, 2))
    assert [r.point.tobytes() for r in reports] == [x.tobytes() for x in kept]


def test_start_table_is_the_same_on_one_and_two_cpus(monkeypatch, forks):
    sys1, starts = oracle_case(601)
    tables = []
    for cpus in (1, 2):
        monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
        tables.append(_start_table(sys1, starts, 1e-10))
    assert len(forks) == 1
    assert tables[0].tobytes() == tables[1].tobytes() == oracle_table(601).tobytes()
