import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.construct import construct_relu_attractor
from attrakit.dynsys import Activation, SystemForm, make_system
from attrakit.simulate import (
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
