import csv
import io
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit import _forked, simulate
from attrakit.cli import _STREAM_GEN, _STREAM_X0, subseed
from attrakit.construct import construct_relu_attractor
from attrakit.dynsys import (
    Activation,
    KinkWarning,
    SystemForm,
    bound_field,
    eval_field,
    jacobian_analytic,
    make_system,
    stacked_field,
    stacked_jacobian,
)
from attrakit.equilibria import residual_vector
from attrakit.simulate import (
    _BLOCK_ROWS,
    DivergenceError,
    Trajectory,
    integrate_rk4,
    iterate_map,
    sine_map_system,
    slow_fast_report,
    trajectory_from_csv,
    trajectory_to_csv,
)


def scalar_map(rate):
    # x(t+1) = rate * x, expressed through the discrete form with W = 0
    return make_system(W=[[0.0]], A=[[-rate]], b=[0.0],
                       activation=Activation.identity, form=SystemForm.discrete_map)


def decay_field():
    # dx/dt = -x
    return make_system(W=[[0.0]], A=[[1.0]], b=[0.0],
                       activation=Activation.identity, form=SystemForm.pre_activation)


def test_iterate_map_geometric_decay():
    traj = iterate_map(scalar_map(0.5), [1.0], steps=4)
    assert np.array_equal(traj.states[:, 0], [1.0, 0.5, 0.25, 0.125, 0.0625])
    assert np.array_equal(traj.speeds, [0.5, 0.25, 0.125, 0.0625])
    assert np.array_equal(traj.times, [0.0, 1.0, 2.0, 3.0, 4.0])


def test_iterate_map_fixed_point_constant():
    # W = 2I, A = I makes every state an exact fixed point in floats
    sys1 = make_system(W=2.0 * np.eye(2), A=np.eye(2), b=np.zeros(2),
                       activation=Activation.identity, form=SystemForm.discrete_map)
    traj = iterate_map(sys1, [0.3, -0.7], steps=10)
    assert np.all(traj.speeds == 0.0)
    assert np.all(traj.states == traj.states[0])
    report = slow_fast_report(traj)
    assert report.collapse_step == 0
    assert report.terminal_drift == 0.0
    assert report.converged


def test_iterate_map_divergence():
    with pytest.raises(DivergenceError) as err:
        iterate_map(scalar_map(2.0), [1.0], steps=100)
    assert np.isfinite(err.value.last_state).all()
    assert err.value.step < 100


def test_iterate_map_nan_start_diverges():
    with pytest.raises(DivergenceError) as err:
        iterate_map(scalar_map(0.5), [np.nan], steps=5)
    assert err.value.step == 1


def test_rk4_overflow_to_nan_diverges():
    # the first stage overflows to -inf, and 0 * inf turns the next one into NaN
    stiff = make_system(W=[[0.0]], A=[[1e308]], b=[0.0],
                        activation=Activation.identity, form=SystemForm.pre_activation)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError, match="non-finite") as err:
        integrate_rk4(stiff, [10.0], t_end=1.0, h=0.1)
    assert err.value.step == 1
    assert np.array_equal(err.value.last_state, [10.0])


def stepped_with_hand_overs(sys1, steps):
    """Step sys1 from 1; return the trajectory and what on_block was handed, copied as handed."""
    handed = []

    def on_block(traj, done):
        handed.append((traj, done, traj.states[:done + 1].copy(), traj.speeds[:done].copy()))
    if sys1.form is SystemForm.discrete_map:
        return iterate_map(sys1, [1.0], steps, on_block=on_block), handed
    return integrate_rk4(sys1, [1.0], steps * 0.01, 0.01, on_block=on_block), handed


@pytest.mark.parametrize("sys1", [scalar_map(0.99), decay_field()], ids=["map", "rk4"])
def test_on_block_gets_the_returned_trajectory_after_each_checked_block(sys1):
    traj, handed = stepped_with_hand_overs(sys1, 2 * _BLOCK_ROWS + 88)
    assert [done for _, done, _, _ in handed] == [_BLOCK_ROWS, 2 * _BLOCK_ROWS,
                                                  2 * _BLOCK_ROWS + 88]
    for handed_traj, done, states, speeds in handed:
        assert handed_traj is traj
        # what was handed over is final: stepping on does not change it
        assert np.array_equal(states, traj.states[:done + 1])
        assert np.array_equal(speeds, traj.speeds[:done])
    assert not traj.states.flags.writeable and not traj.speeds.flags.writeable


def test_on_block_is_never_handed_a_state_past_the_divergence():
    # 1.05 ** t passes 1e12 at step 567, in the third block
    handed = []
    with pytest.raises(DivergenceError) as err:
        iterate_map(scalar_map(1.05), [1.0], 4 * _BLOCK_ROWS,
                    on_block=lambda traj, done: handed.append(done))
    assert err.value.step == 567
    assert handed == [_BLOCK_ROWS, 2 * _BLOCK_ROWS]


def test_iterate_map_requires_discrete_form():
    with pytest.raises(ValueError):
        iterate_map(decay_field(), [1.0], steps=3)


def test_rk4_exponential_decay():
    traj = integrate_rk4(decay_field(), [1.0], t_end=1.0, h=0.01)
    assert abs(traj.states[-1][0] - 0.36787944117144233) <= 1e-8
    assert traj.times[-1] == 1.0
    assert traj.speeds.shape == (101,)


def test_rk4_equilibrium_start_constant():
    sys1 = make_system(W=[[1.0]], A=[[0.5]], b=[0.0],
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    traj = integrate_rk4(sys1, [0.0], t_end=2.0, h=0.1)
    assert np.all(traj.states == 0.0)


def test_rk4_order_four():
    sys1 = make_system(W=[[1.0]], A=[[0.5]], b=[0.0],
                       activation=Activation.tanh, form=SystemForm.pre_activation)

    def endpoint(h):
        return integrate_rk4(sys1, [2.0], t_end=1.0, h=h).states[-1][0]

    truth = endpoint(0.001)
    ratio = abs(endpoint(0.1) - truth) / abs(endpoint(0.05) - truth)
    assert 12.0 <= ratio <= 20.0


def test_rk4_relaxes_onto_attractor_with_tangential_displacement():
    ca = construct_relu_attractor(p=4, z=2, m=2, seed=3)
    c = np.full(2, ca.c_max / 2)
    x_star = ca.point_at(c)
    tangents = np.stack([np.concatenate([ca.basis[:, i], ca.W_ZP @ ca.basis[:, i]])
                         for i in range(2)])
    tau = tangents[0] / np.linalg.norm(tangents[0])
    rng = np.random.default_rng(9)
    nu = rng.standard_normal(ca.n)
    for t in tangents:
        nu -= (nu @ t) / (t @ t) * t
    nu /= np.linalg.norm(nu)
    traj = integrate_rk4(ca.sys, x_star + 0.1 * tau + 0.05 * nu, t_end=80.0, h=0.05)
    foot, dist = ca.project(traj.states[-1])
    assert dist <= 1e-6
    # the tangential component survives: the endpoint's foot moved along the set
    assert np.linalg.norm(foot - x_star) >= 0.05


def test_slow_fast_geometric_collapse_step():
    traj = iterate_map(scalar_map(0.5), [1.0], steps=20)
    report = slow_fast_report(traj, theta=0.01)
    assert report.collapse_step == 7


def test_slow_fast_stratified_versus_uniform_control():
    sys_s = sine_map_system(n=3, top=1.0, ratio=100.0, alpha=0.05,
                            b_scale=0.005, seed=1)
    rng = np.random.default_rng(1001)
    x0 = rng.uniform(-0.5, 0.5, 3)
    rep_s = slow_fast_report(iterate_map(sys_s, x0, 20000))
    assert rep_s.collapse_step <= 200
    assert rep_s.converged
    assert rep_s.terminal_drift >= 10.0 * rep_s.collapse_speed

    sys_u = sine_map_system(n=3, top=0.3, ratio=1.0, alpha=0.05,
                            b_scale=0.005, seed=1)
    rep_u = slow_fast_report(iterate_map(sys_u, x0, 20000))
    assert rep_u.converged
    assert rep_u.terminal_drift < 2.0 * rep_u.collapse_speed


def test_contraction_speeds_shrink_after_transient():
    sys1 = sine_map_system(n=3, top=0.5, ratio=5.0, alpha=0.05, b_scale=0.01, seed=2)
    traj = iterate_map(sys1, [0.2, -0.3, 0.4], steps=200)
    speeds = traj.speeds
    nonzero = speeds[5:] > 0
    ratios = speeds[6:][nonzero[:-1]] / speeds[5:-1][nonzero[:-1]]
    assert ratios.size > 0
    assert np.max(ratios) < 1.0


def test_slow_fast_validation():
    traj = iterate_map(scalar_map(0.5), [1.0], steps=4)
    with pytest.raises(ValueError):
        slow_fast_report(traj, theta=0.0)
    with pytest.raises(ValueError):
        slow_fast_report(traj, theta=1.0)


def test_trajectory_invariants_enforced():
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 2)), times=np.array([0.0, 1.0, 1.0]),
                   speeds=np.zeros(2), kind="discrete")
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 2)), times=np.array([0.0, 1.0, 2.0]),
                   speeds=np.zeros(3), kind="discrete")
    with pytest.raises(ValueError):
        Trajectory(states=np.zeros((3, 2)), times=np.array([0.0, 1.0, 2.0]),
                   speeds=np.zeros(2), kind="weird")


def test_csv_round_trip_discrete(tmp_path):
    sys1 = sine_map_system(n=4, top=0.8, ratio=10.0, seed=5)
    traj = iterate_map(sys1, [0.1, -0.2, 0.3, 0.05], steps=25)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    assert back.kind == "discrete"
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.speeds, traj.speeds)
    header = path.read_text().splitlines()[0]
    assert header == "step,t,x_1,x_2,x_3,x_4,speed"


def test_csv_round_trip_continuous(tmp_path):
    traj = integrate_rk4(decay_field(), [1.3], t_end=0.5, h=0.05)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    assert back.kind == "continuous"
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.speeds, traj.speeds)


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=2, max_size=8))
@settings(max_examples=30, deadline=None)
def test_csv_preserves_arbitrary_doubles(tmp_path_factory, values):
    states = np.array(values)[:, None]
    times = np.arange(len(values), dtype=float)
    speeds = np.abs(np.diff(states[:, 0]))
    traj = Trajectory(states=states, times=times, speeds=speeds, kind="discrete")
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    trajectory_to_csv(traj, path)
    back = trajectory_from_csv(path)
    assert np.array_equal(back.states, traj.states)
    assert np.array_equal(back.speeds, traj.speeds)


def test_iterate_map_rejects_scalar_x0():
    # a scalar used to be broadcast to every coordinate
    with pytest.raises(ValueError, match=r"state has shape \(1,\), expected \(3,\)"):
        iterate_map(sine_map_system(n=3), 0.5, 3)


def test_integrate_rk4_rejects_scalar_x0():
    sys3 = make_system(W=np.eye(3), A=np.eye(3), b=np.zeros(3),
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    with pytest.raises(ValueError, match=r"expected \(3,\)"):
        integrate_rk4(sys3, 0.5, t_end=1.0, h=0.1)


def test_integrate_rk4_with_more_steps_than_can_be_counted_is_a_value_error():
    # t_end / h overflows to inf, which has no integer step count
    with pytest.raises(ValueError, match="^more steps than can be counted$"):
        integrate_rk4(decay_field(), [1.0], t_end=1e300, h=1e-300)


@pytest.mark.parametrize("x0", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2, 0.3]]])
def test_stepping_rejects_wrong_shape_x0(x0):
    with pytest.raises(ValueError, match="state has shape"):
        iterate_map(sine_map_system(n=3), x0, 3)
    with pytest.raises(ValueError, match="state has shape"):
        integrate_rk4(decay_field(), x0, t_end=1.0, h=0.1)


def test_stepping_accepts_length_one_x0_for_n_one():
    traj = iterate_map(scalar_map(0.5), np.array([2.0]), steps=2)
    assert np.array_equal(traj.states[:, 0], [2.0, 1.0, 0.5])
    traj = integrate_rk4(decay_field(), [2.0], t_end=0.2, h=0.1)
    assert traj.states.shape == (3, 1)


def test_stepping_does_not_write_to_x0():
    x0 = np.array([0.1, -0.2, 0.3])
    iterate_map(sine_map_system(n=3), x0, 5)
    integrate_rk4(make_system(W=np.eye(3), A=np.eye(3), b=np.zeros(3),
                              activation=Activation.tanh,
                              form=SystemForm.pre_activation), x0, t_end=0.5, h=0.1)
    assert np.array_equal(x0, [0.1, -0.2, 0.3])


# Reference steppers: the per-step eval_field loops the package used before
# it bound the field once per trajectory. Outputs must match them bit for bit.

def reference_iterate_map(sys, x0, steps):
    states = np.empty((steps + 1, sys.n))
    speeds = np.empty(steps)
    states[0] = x0
    for t in range(steps):
        x_next = eval_field(sys, states[t])
        if not float(np.linalg.norm(x_next)) <= 1e12:
            raise DivergenceError(t + 1, states[t].copy())
        speeds[t] = np.linalg.norm(x_next - states[t])
        states[t + 1] = x_next
    return states, speeds


def reference_rk4(sys, x0, t_end, h):
    n_steps = max(1, int(round(t_end / h)))
    dt = t_end / n_steps
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x0
    for t in range(n_steps):
        x = states[t]
        k1 = eval_field(sys, x)
        k2 = eval_field(sys, x + 0.5 * dt * k1)
        k3 = eval_field(sys, x + 0.5 * dt * k2)
        k4 = eval_field(sys, x + dt * k3)
        x_next = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not float(np.linalg.norm(x_next)) <= 1e12:
            raise DivergenceError(t + 1, x.copy())
        states[t + 1] = x_next
    return states


def random_system(n, activation, form, seed):
    rng = np.random.default_rng(seed)
    return make_system(W=0.9 * rng.standard_normal((n, n)) / np.sqrt(n),
                       A=np.diag(rng.uniform(0.2, 1.0, n)),
                       b=0.1 * rng.standard_normal(n),
                       activation=activation, form=form)


@pytest.mark.parametrize("form", list(SystemForm))
@pytest.mark.parametrize("activation", list(Activation))
def test_bound_field_matches_eval_field_bitwise(form, activation):
    rng = np.random.default_rng(7)
    for n in (1, 3, 40):
        sys_n = random_system(n, activation, form, seed=n)
        field = bound_field(sys_n)
        for x in rng.standard_normal((8, n)):
            assert np.array_equal(field(x), eval_field(sys_n, x))


def matmul_field(sys_n, x):
    # the field written with @, as bound_field computed it before ndarray.dot
    act = Activation(sys_n.activation)
    if sys_n.form is SystemForm.post_activation:
        return -x + sys_n.W @ act(x) + sys_n.b
    return act(sys_n.W @ x + sys_n.b) - sys_n.A @ x


@pytest.mark.parametrize("form", list(SystemForm))
@pytest.mark.parametrize("activation", list(Activation))
@pytest.mark.parametrize("n", [2, 3, 7, 40, 64, 130])
def test_bound_field_bits_match_matmul(form, activation, n):
    rng = np.random.default_rng(n)
    for case in range(6):
        W, A = rng.standard_normal((2, n, n))
        b, x = rng.standard_normal((2, n))
        if case % 2:
            # planted signed zeros, in every operand and in whole rows
            for arr in (W, A, b, x):
                arr.flat[rng.choice(arr.size, max(1, arr.size // 3), replace=False)] = -0.0
            W[0] = -0.0
            x[:n // 2] = -0.0
        sys_n = make_system(W=W, A=A, b=b, activation=activation, form=form)
        assert bound_field(sys_n)(x).tobytes() == matmul_field(sys_n, x).tobytes()
        # a stack's rows, this one among others, have the same bits too
        X = np.stack([x, rng.standard_normal(n), -x])
        assert stacked_field(sys_n)(X)[0].tobytes() == bound_field(sys_n)(x).tobytes()
        assert stacked_field(sys_n)(X)[2].tobytes() == bound_field(sys_n)(-x).tobytes()


def test_bound_field_keeps_negative_zero_at_n1():
    # the one case where ndarray.dot and @ differ: a single product of -0,
    # here W x = -2 * +0; the stacked field and the residual keep it too
    x = np.array([0.0])
    for form in SystemForm:
        sys1 = make_system(W=[[-2.0]], A=[[0.5]], b=[-0.0],
                           activation=Activation.identity, form=form)
        assert np.signbit(bound_field(sys1)(x)[0]), form
        assert not np.signbit(matmul_field(sys1, x)[0]), form
        assert np.signbit(stacked_field(sys1)(x[None])[0, 0]), form
        assert np.signbit(residual_vector(sys1, x)[0]), form


def reference_jacobian(sys_n, x):
    # the Jacobian of one state, as the per-state bound Jacobian wrote it
    deriv = Activation(sys_n.activation).deriv
    if sys_n.form is SystemForm.post_activation:
        return sys_n.W * deriv(x) - np.eye(sys_n.n)
    return deriv(sys_n.W @ x + sys_n.b)[:, None] * sys_n.W - sys_n.A


@pytest.mark.parametrize("form", list(SystemForm))
@pytest.mark.parametrize("activation", list(Activation))
def test_bound_jacobian_matches_jacobian_analytic_bitwise(form, activation):
    # the bound Jacobian is stacked_jacobian: each row of a stack has the
    # bits of jacobian_analytic and of the one-state formula
    rng = np.random.default_rng(8)
    for n in (1, 3, 40):
        sys_n = random_system(n, activation, form, seed=n)
        states = rng.standard_normal((8, n))
        states[::2, 0] = 0.0  # a relu kink for the post-activation form
        for x, J in zip(states, stacked_jacobian(sys_n)(states)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KinkWarning)
                assert np.array_equal(jacobian_analytic(sys_n, x), J)
            assert np.array_equal(reference_jacobian(sys_n, x), J)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_iterate_map_bit_identical_to_eval_field_loop(n):
    sys_n = sine_map_system(n=n, top=1.0, ratio=100.0, seed=n)
    x0 = np.random.default_rng(n).uniform(-0.5, 0.5, n)
    # one partial block, and two whole blocks plus a partial one
    for steps in (300, 2 * _BLOCK_ROWS + 3):
        traj = iterate_map(sys_n, x0, steps)
        states, speeds = reference_iterate_map(sys_n, x0, steps)
        assert np.array_equal(traj.states, states)
        assert np.array_equal(traj.speeds, speeds)


@pytest.mark.parametrize("form", [SystemForm.pre_activation, SystemForm.post_activation])
@pytest.mark.parametrize("activation", [Activation.tanh, Activation.relu, Activation.sine])
@pytest.mark.parametrize("n", [1, 3, 40])
def test_rk4_bit_identical_to_eval_field_loop(form, activation, n):
    sys_n = random_system(n, activation, form, seed=11 * n)
    x0 = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    traj = integrate_rk4(sys_n, x0, t_end=2.0, h=0.01)
    assert np.array_equal(traj.states, reference_rk4(sys_n, x0, 2.0, 0.01))
    # each speed, the last one included, is the field norm at that state
    for s, speed in zip(traj.states, traj.speeds):
        assert speed == np.linalg.norm(eval_field(sys_n, s))


@pytest.mark.parametrize("case", ["map", "pre", "post"])
def test_divergence_step_and_last_state_match_eval_field_loop(case):
    if case == "map":
        sys_d = make_system(W=0.5 * np.eye(2), A=-3.0 * np.eye(2), b=np.zeros(2),
                            activation=Activation.identity, form=SystemForm.discrete_map)
        run = lambda: iterate_map(sys_d, [1.0, 2.0], 100)  # noqa: E731
        ref = lambda: reference_iterate_map(sys_d, [1.0, 2.0], 100)  # noqa: E731
    else:
        form = SystemForm.pre_activation if case == "pre" else SystemForm.post_activation
        sys_d = make_system(W=3.0 * np.eye(3), A=np.zeros((3, 3)), b=np.ones(3),
                            activation=Activation.identity, form=form)
        run = lambda: integrate_rk4(sys_d, [1.0, 2.0, 3.0], 100.0, 0.1)  # noqa: E731
        ref = lambda: reference_rk4(sys_d, [1.0, 2.0, 3.0], 100.0, 0.1)  # noqa: E731
    with pytest.raises(DivergenceError) as got:
        run()
    with pytest.raises(DivergenceError) as want:
        ref()
    assert got.value.step > 1
    assert got.value.step == want.value.step
    assert np.array_equal(got.value.last_state, want.value.last_state)


@pytest.mark.parametrize("case", ["map", "pre", "post"])
@pytest.mark.parametrize("step", [1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
def test_divergence_at_block_edges_matches_eval_field_loop(case, step):
    # x grows by a factor g per step; x0 puts the first norm above 1e12 at step
    if case == "map":
        g = 2.0
        sys_d = make_system(W=[[0.0]], A=[[-g]], b=[0.0],
                            activation=Activation.identity, form=SystemForm.discrete_map)
        x0 = [1e12 * g ** (0.5 - step)]
        run = lambda: iterate_map(sys_d, x0, 3 * _BLOCK_ROWS)  # noqa: E731
        ref = lambda: reference_iterate_map(sys_d, x0, 3 * _BLOCK_ROWS)  # noqa: E731
    else:
        # dx/dt = x, and one RK4 step of h = 1 multiplies x by g
        g = 1.0 + 1.0 + 1.0 / 2.0 + 1.0 / 6.0 + 1.0 / 24.0
        sys_d = (make_system(W=[[0.0]], A=[[-1.0]], b=[0.0], activation=Activation.identity,
                             form=SystemForm.pre_activation) if case == "pre"
                 else make_system(W=[[2.0]], A=[[0.0]], b=[0.0], activation=Activation.identity,
                                  form=SystemForm.post_activation))
        x0 = [1e12 * g ** (0.5 - step)]
        t_end = 3.0 * _BLOCK_ROWS
        run = lambda: integrate_rk4(sys_d, x0, t_end, 1.0)  # noqa: E731
        ref = lambda: reference_rk4(sys_d, x0, t_end, 1.0)  # noqa: E731
    with pytest.raises(DivergenceError) as got:
        run()
    with pytest.raises(DivergenceError) as want:
        ref()
    assert got.value.step == want.value.step == step
    assert np.array_equal(got.value.last_state, want.value.last_state)


@pytest.mark.parametrize("case", ["map", "rk4"])
def test_divergence_raises_no_numpy_warning(case):
    # the steps past the divergence overflow to inf, then sin(inf) or 0 * inf is NaN
    if case == "map":
        sys_d = make_system(W=[[1.0]], A=[[-1e200]], b=[0.0],
                            activation=Activation.sine, form=SystemForm.discrete_map)
        run = lambda: iterate_map(sys_d, [1.0], 100)  # noqa: E731
    else:
        sys_d = make_system(W=[[0.0]], A=[[1e308]], b=[0.0],
                            activation=Activation.identity, form=SystemForm.pre_activation)
        run = lambda: integrate_rk4(sys_d, [10.0], t_end=10.0, h=0.1)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run()
    assert err.value.step == 1
    assert np.isfinite(err.value.last_state).all()


def counting(fn, calls):
    def wrapped(*args):
        calls.append(None)
        return fn(*args)
    return wrapped


def test_stepping_calls_the_field_once_per_stage_and_map_skips_norm(monkeypatch):
    field_calls, norm_calls = [], []
    monkeypatch.setattr(simulate, "bound_field",
                        lambda sys: counting(bound_field(sys), field_calls))
    monkeypatch.setattr(simulate, "_norm", counting(simulate._norm, norm_calls))
    steps = 2 * _BLOCK_ROWS + 3
    iterate_map(sine_map_system(n=3), [0.1, 0.2, 0.3], steps)
    assert len(field_calls) == steps
    assert norm_calls == []
    field_calls.clear()
    traj = integrate_rk4(decay_field(), [1.0], t_end=float(steps), h=1.0)
    assert traj.states.shape[0] == steps + 1
    assert len(field_calls) == 4 * steps + 1


def slow_fast_peak_bytes(traj):
    tracemalloc.start()
    try:
        slow_fast_report(traj)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_slow_fast_report_memory_on_benchmark_map():
    # the trajectory benchmark's map: simulate --gen stratified --steps 100000 --seed 5
    sys_s = sine_map_system(n=3, seed=subseed(5, _STREAM_GEN))
    x0 = np.random.default_rng(subseed(5, _STREAM_X0)).uniform(-0.5, 0.5, 3)
    traj = iterate_map(sys_s, x0, 100_000)
    assert slow_fast_peak_bytes(traj) < 2.5e6


def test_slow_fast_report_memory_on_long_continuous_trajectory():
    # the shape of the trajectory benchmark's RK4 run (n = 40, 10k steps)
    rng = np.random.default_rng(3)
    S = 10_001
    traj = Trajectory(states=np.cumsum(rng.standard_normal((S, 40)), axis=0),
                      times=np.arange(S, dtype=float), speeds=rng.random(S),
                      kind="continuous")
    assert slow_fast_peak_bytes(traj) < 2.5e6


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("S", [_BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1])
@pytest.mark.parametrize("n", [1, 3, 40])
def test_slow_fast_drift_matches_whole_array_norms(kind, S, n):
    rng = np.random.default_rng(S * n)
    states = np.cumsum(rng.standard_normal((S, n)) * rng.exponential(size=(S, 1)), axis=0)
    speeds = 0.9 ** np.arange(S - 1 if kind == "discrete" else S)
    traj = Trajectory(states=states, times=np.arange(S, dtype=float), speeds=speeds,
                      kind=kind)
    report = slow_fast_report(traj, theta=0.01)
    c = 44  # the first k with 0.9 ** k < 0.01
    assert report.collapse_step == c
    want = np.linalg.norm(np.diff(states, axis=0), axis=1)[c:].sum()
    assert report.terminal_drift == want


def reference_csv_bytes(traj):
    # the writer this package used before the block formatter: csv.writer
    # over per-value f-strings
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    n = traj.states.shape[1]
    writer.writerow(["step", "t"] + [f"x_{j + 1}" for j in range(n)] + ["speed"])
    for i, (t, x) in enumerate(zip(traj.times, traj.states)):
        if traj.kind == "discrete":
            speed = "" if i == 0 else f"{traj.speeds[i - 1]:.17g}"
        else:
            speed = f"{traj.speeds[i]:.17g}"
        writer.writerow([i, f"{t:.17g}"] + [f"{v:.17g}" for v in x] + [speed])
    return buf.getvalue().encode()


@pytest.mark.parametrize("kind", ["discrete", "continuous"])
@pytest.mark.parametrize("n", [1, 3, 40])
@pytest.mark.parametrize("rows", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS,
                                  _BLOCK_ROWS + 1, _BLOCK_ROWS + 2])
def test_csv_writer_bytes_match_csv_module_reference(tmp_path, kind, n, rows):
    rng = np.random.default_rng(rows + n)
    special = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0]
    states = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    states.flat[:len(special)] = special[:states.size]
    times = np.concatenate([[-0.0, 5e-324], 1e-3 * np.arange(1, rows - 1)])
    speeds = rng.exponential(size=rows - 1 if kind == "discrete" else rows)
    speeds[:3] = [-0.0, 5e-324, 1e300][:speeds.size]
    traj = Trajectory(states=states, times=times, speeds=speeds, kind=kind)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    assert path.read_bytes() == reference_csv_bytes(traj)


def test_csv_header_only_file_names_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,t,x_1,speed\r\n")
    with pytest.raises(ValueError, match="line 2: no data rows"):
        trajectory_from_csv(path)


def test_csv_empty_file_names_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="line 1"):
        trajectory_from_csv(path)


def test_csv_ragged_row_names_the_line(tmp_path):
    # the x_1 value used to be read as the speed
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,t,x_1,speed\r\n0,0,0.25,\r\n1,1,0.5\r\n")
    with pytest.raises(ValueError, match="line 3: 3 cells, the header has 4"):
        trajectory_from_csv(path)


def test_csv_non_number_names_the_line(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"step,t,x_1,speed\r\n0,0,0.25,1\r\n1,1,zero,1\r\n")
    with pytest.raises(ValueError, match="line 3"):
        trajectory_from_csv(path)


@given(kind=st.sampled_from(["discrete", "continuous"]),
       n=st.integers(min_value=1, max_value=4),
       rows=st.integers(min_value=1, max_value=6),
       edit=st.sampled_from(["drop", "extra"]),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_csv_reader_rejects_any_dropped_or_extra_cell(tmp_path_factory, kind, n, rows,
                                                      edit, data):
    rng = np.random.default_rng(rows * 10 + n)
    traj = Trajectory(states=rng.standard_normal((rows, n)),
                      times=np.arange(rows, dtype=float),
                      speeds=rng.random(rows - 1 if kind == "discrete" else rows),
                      kind=kind)
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    line = data.draw(st.integers(min_value=0, max_value=len(lines) - 1), label="line")
    cells = lines[line].split(",")
    at = data.draw(st.integers(min_value=0, max_value=len(cells) - (edit == "drop")),
                   label="cell")
    if edit == "drop":
        del cells[at]
    else:
        cells.insert(at, "1")
    lines[line] = ",".join(cells)
    path.write_bytes("".join(v + "\r\n" for v in lines).encode())
    with pytest.raises(ValueError, match="line"):
        trajectory_from_csv(path)


# the all-at-once cases' row counts sit around multiples of R rows
R = 2048


def csv_writer(layout, rows):
    """A function writing `layout` with `rows` rows to a path, as the CLI does."""
    rng = np.random.default_rng(rows)
    if rows < 100_000:
        states = rng.standard_normal((rows + 1, 3)) * 10.0 ** rng.integers(-300, 300,
                                                                           (rows + 1, 3))
        states.flat[:4] = [-0.0, 5e-324, 1e300, 0.1]
    else:  # a long file; short numbers keep it quick
        states = rng.standard_normal((rows + 1, 1))
    times = np.arange(rows + 1, dtype=float) * 1e-3
    if layout == "discrete":
        # rows + 1 states: the writer's second call gets `rows` rows
        traj = Trajectory(states=states, times=times, speeds=rng.exponential(size=rows),
                          kind="discrete")
        return lambda path: trajectory_to_csv(traj, path)
    if layout == "continuous":
        columns = [times[:rows], states[:rows], rng.exponential(size=rows)]
        steps = range(rows)
    else:  # snapshots: a list of steps, as the CLI passes them
        steps = sorted(rng.choice(rows + 1, rows, replace=False).tolist())
        columns = [times[steps], states[steps]]

    return lambda path: simulate.write_csv_rows(path, b"step,values\r\n", steps, columns)


@pytest.mark.parametrize("rows, cpus", [
    *[(rows, 2) for rows in (0, 1, 255, 256, 257, 2 * R - 1, 2 * R, 2 * R + 1, 100_001)],
    *[(rows, 3) for rows in (2 * R, 3 * R - 1, 3 * R + 1, 100_001)],
])
@pytest.mark.parametrize("layout", ["discrete", "continuous", "snapshots"])
def test_split_csv_writer_bytes_match_serial_reference(tmp_path, monkeypatch, forks, layout,
                                                       rows, cpus):
    # rows that are all ready at once are formatted here, however many CPUs
    write = csv_writer(layout, rows)
    # the one-CPU path, which the csv-module reference test pins
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 1)
    write(tmp_path / "serial.csv")
    monkeypatch.setattr(_forked, "usable_cpus", lambda: cpus)
    out = tmp_path / "split"
    out.mkdir()
    write(out / "out.csv")
    assert (out / "out.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()
    assert forks == []
    assert os.listdir(out) == ["out.csv"]


def test_csv_writer_that_fails_midway_leaves_no_file_and_forks_nothing(tmp_path, monkeypatch,
                                                                        forks):
    # rows all ready at once are formatted here, on 3 CPUs too; the file is
    # assembled under a temporary name, which the error removes
    monkeypatch.setattr(_forked, "usable_cpus", lambda: 3)
    write = csv_writer("snapshots", 3 * R + 1)
    column_stack = np.column_stack
    blocks = []

    def stack(arrays):
        blocks.append(len(arrays[0]))
        if len(blocks) == 5:
            raise RuntimeError("formatting failed midway")
        return column_stack(arrays)
    monkeypatch.setattr(np, "column_stack", stack)
    with pytest.raises(RuntimeError, match="midway"):
        write(tmp_path / "out.csv")
    assert forks == []
    assert os.listdir(tmp_path) == []
