import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.construct import construct_relu_attractor
from attrakit.dynsys import (
    Activation,
    KinkWarning,
    SystemForm,
    bound_field,
    bound_jacobian,
    eval_field,
    jacobian_analytic,
    make_system,
)
from attrakit.simulate import (
    _CSV_BLOCK_ROWS,
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


def test_iterate_map_rejects_scalar_x0():
    # a scalar used to be broadcast to every coordinate
    with pytest.raises(ValueError, match=r"state has shape \(1,\), expected \(3,\)"):
        iterate_map(sine_map_system(n=3), 0.5, 3)


def test_integrate_rk4_rejects_scalar_x0():
    sys3 = make_system(W=np.eye(3), A=np.eye(3), b=np.zeros(3),
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    with pytest.raises(ValueError, match=r"expected \(3,\)"):
        integrate_rk4(sys3, 0.5, t_end=1.0, h=0.1)


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


@pytest.mark.parametrize("form", list(SystemForm))
@pytest.mark.parametrize("activation", list(Activation))
def test_bound_jacobian_matches_jacobian_analytic_bitwise(form, activation):
    rng = np.random.default_rng(8)
    for n in (1, 3, 40):
        sys_n = random_system(n, activation, form, seed=n)
        jac = bound_jacobian(sys_n)
        states = rng.standard_normal((8, n))
        states[::2, 0] = 0.0  # a relu kink for the post-activation form
        for x in states:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", KinkWarning)
                J = jacobian_analytic(sys_n, x)
            assert np.array_equal(jac(x), J)


@pytest.mark.parametrize("n", [1, 3, 40])
def test_iterate_map_bit_identical_to_eval_field_loop(n):
    sys_n = sine_map_system(n=n, top=1.0, ratio=100.0, seed=n)
    x0 = np.random.default_rng(n).uniform(-0.5, 0.5, n)
    traj = iterate_map(sys_n, x0, 300)
    states, speeds = reference_iterate_map(sys_n, x0, 300)
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
@pytest.mark.parametrize("rows", [_CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS,
                                  _CSV_BLOCK_ROWS + 1, _CSV_BLOCK_ROWS + 2])
def test_csv_writer_bytes_match_csv_module_reference(tmp_path, kind, n, rows):
    rng = np.random.default_rng(rows + n)
    special = [-0.0, 5e-324, 1e300, -1e300, 0.1, 1.0]
    states = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-300, 300, (rows, n))
    states.flat[:len(special)] = special[:states.size]
    times = np.concatenate([[-0.0, 5e-324], 1e-3 * np.arange(1, rows - 1)])
    speeds = rng.exponential(size=rows - 1 if kind == "discrete" else rows)
    speeds[:3] = [-0.0, 5e-324, 1e300]
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
