import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrakit.dynsys import (
    Activation,
    DynamicalSystem,
    KinkWarning,
    SystemForm,
    eval_field,
    jacobian_analytic,
    jacobian_fd,
    load_system,
    make_system,
    save_system,
    system_from_dict,
    write_json,
)

SMOOTH = [Activation.identity, Activation.tanh, Activation.sine, Activation.logistic]


def relu_line_system():
    # active block diag(1, 0.5), one inactive coordinate fed by (-0.5, 0)
    W = np.array([[1.0, 0.0, 0.0],
                  [0.0, 0.5, 0.0],
                  [-0.5, 0.0, 0.0]])
    b = np.array([0.0, 0.0, -1.0])
    return make_system(W=W, A=np.eye(3), b=b,
                       activation=Activation.relu, form=SystemForm.post_activation)


@pytest.mark.parametrize("kind", list(Activation))
@given(x=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=40, deadline=None)
def test_activation_derivative_matches_finite_differences(kind, x):
    if kind is Activation.relu and abs(x) < 1e-3:
        x = x + 2e-3  # keep away from the kink
    h = 1e-6
    fd = (kind(x + h) - kind(x - h)) / (2 * h)
    assert abs(kind.deriv(x) - fd) <= 1e-6


def test_relu_derivative_at_zero_is_zero():
    assert Activation.relu.deriv(0.0) == 0.0
    assert np.array_equal(Activation.relu.deriv(np.array([-1.0, 0.0, 2.0])),
                          np.array([0.0, 0.0, 1.0]))


def test_identity_system_field_vanishes():
    sys1 = make_system(W=np.eye(2), A=np.eye(2), b=np.zeros(2),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    assert np.array_equal(eval_field(sys1, [3.0, -4.0]), np.zeros(2))


@pytest.mark.parametrize("c", [0.0, 1.0, 2.5, 7.0])
def test_relu_line_points_are_equilibria(c):
    # hand substitution: f(x) = (c, 0, 0), so -x + W f(x) + b telescopes to 0
    sys1 = relu_line_system()
    x = np.array([c, 0.0, -0.5 * c - 1.0])
    assert np.max(np.abs(eval_field(sys1, x))) <= 1e-15


def test_tanh_scalar_field_value():
    sys1 = make_system(W=[[1.0]], A=[[0.5]], b=[0.0],
                       activation=Activation.tanh, form=SystemForm.pre_activation)
    expected = np.tanh(1.0) - 0.5
    assert abs(expected - 0.2615941559557649) < 1e-12
    assert abs(eval_field(sys1, [1.0])[0] - expected) < 1e-15


def test_jacobian_identity_activation_is_w_minus_a():
    rng = np.random.default_rng(0)
    W, A = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    sys1 = make_system(W=W, A=A, b=rng.standard_normal(4),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    x = rng.standard_normal(4)
    assert np.array_equal(jacobian_analytic(sys1, x), W - A)


def test_relu_block_jacobian_in_fixed_pattern_region():
    sys1 = relu_line_system()
    x = np.array([1.0, 0.5, -2.0])  # strictly inside the active pattern
    expected = np.array([[0.0, 0.0, 0.0],
                         [0.0, -0.5, 0.0],
                         [-0.5, 0.0, -1.0]])
    assert np.array_equal(jacobian_analytic(sys1, x), expected)


def test_sine_scalar_jacobian():
    sys1 = make_system(W=[[2.0]], A=[[0.3]], b=[0.0],
                       activation=Activation.sine, form=SystemForm.pre_activation)
    assert abs(jacobian_analytic(sys1, [0.0])[0, 0] - 1.7) < 1e-15


def test_fd_jacobian_exact_on_linear_field():
    rng = np.random.default_rng(1)
    W, A = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    sys1 = make_system(W=W, A=A, b=np.zeros(3),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    J = jacobian_fd(sys1, rng.standard_normal(3), h=1e-6)
    assert np.max(np.abs(J - (W - A))) <= 1e-9


@pytest.mark.parametrize("form", list(SystemForm))
def test_fd_matches_analytic_over_random_systems(form):
    rng = np.random.default_rng(7)
    for _ in range(35):
        n = int(rng.integers(1, 17))
        act = SMOOTH[int(rng.integers(len(SMOOTH)))]
        sys1 = make_system(W=rng.standard_normal((n, n)), A=rng.standard_normal((n, n)),
                           b=rng.standard_normal(n), activation=act, form=form)
        x = rng.standard_normal(n)
        Ja = jacobian_analytic(sys1, x)
        Jf = jacobian_fd(sys1, x)
        scale = 1.0 + np.max(np.abs(Ja))
        assert np.max(np.abs(Ja - Jf)) <= 1e-5 * scale


def test_kink_warning_and_fd_disagreement_at_kink():
    sys1 = make_system(W=[[1.0]], A=[[0.0]], b=[0.0],
                       activation=Activation.relu, form=SystemForm.pre_activation)
    with pytest.warns(KinkWarning):
        J = jacobian_analytic(sys1, [0.0])
    assert J[0, 0] == 0.0
    # straddling the kink by less than h: central difference averages slopes
    Jf = jacobian_fd(sys1, [0.0], h=1e-6)
    assert abs(Jf[0, 0] - 0.5) < 1e-9
    assert abs(Jf[0, 0] - J[0, 0]) > 0.4


def test_eval_field_is_deterministic():
    rng = np.random.default_rng(3)
    sys1 = make_system(W=rng.standard_normal((5, 5)), A=rng.standard_normal((5, 5)),
                       b=rng.standard_normal(5), activation=Activation.tanh,
                       form=SystemForm.discrete_map)
    x = rng.standard_normal(5)
    assert np.array_equal(eval_field(sys1, x), eval_field(sys1, x))


def test_pre_identity_zero_offset_is_linear_map():
    rng = np.random.default_rng(4)
    W, A = rng.standard_normal((6, 6)), rng.standard_normal((6, 6))
    sys1 = make_system(W=W, A=A, b=np.zeros(6),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    for _ in range(10):
        x = rng.standard_normal(6)
        assert np.max(np.abs(eval_field(sys1, x) - (W - A) @ x)) <= 1e-13 * (1 + np.abs(x).max())


def test_dimension_mismatch_rejected():
    sys1 = make_system(W=np.eye(2), A=np.eye(2), b=np.zeros(2),
                       activation=Activation.identity, form=SystemForm.pre_activation)
    with pytest.raises(ValueError):
        eval_field(sys1, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        jacobian_analytic(sys1, [1.0])
    with pytest.raises(ValueError):
        DynamicalSystem(n=2, W=np.eye(3), A=np.eye(2), b=np.zeros(2),
                        activation="identity", form="pre_activation")


@pytest.mark.parametrize("name", ["W", "A", "b"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_system_arrays_rejected(name, bad):
    arrays = {"W": np.eye(2), "A": np.eye(2), "b": np.zeros(2)}
    arrays[name][0] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite"):
        DynamicalSystem(n=2, activation="tanh", form="pre_activation", **arrays)


def test_system_json_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    sys1 = make_system(W=rng.standard_normal((3, 3)), A=rng.standard_normal((3, 3)),
                       b=rng.standard_normal(3), activation=Activation.sine,
                       form=SystemForm.discrete_map)
    path = tmp_path / "system.json"
    save_system(sys1, path)
    loaded = load_system(path)
    assert np.array_equal(loaded.W, sys1.W)
    assert np.array_equal(loaded.A, sys1.A)
    assert np.array_equal(loaded.b, sys1.b)
    assert loaded.activation is sys1.activation
    assert loaded.form is sys1.form
    keys = set(json.loads(path.read_text()))
    assert keys == {"n", "form", "activation", "W", "A", "b"}


def test_write_json_replaces_whole_file_with_fixed_layout(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("stale content that is longer than the new document")
    payload = {"a": [1.5, 2], "b": None}
    write_json(path, payload)
    assert path.read_text() == json.dumps(payload, indent=2)
    write_json(path, payload, indent=None)
    assert path.read_text() == json.dumps(payload)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
    with pytest.raises(ValueError):
        write_json(path, {"gap": float("inf")})
    assert path.read_text() == json.dumps(payload)
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_system_from_dict_missing_key():
    with pytest.raises(ValueError, match="missing"):
        system_from_dict({"n": 2, "W": [[1, 0], [0, 1]]})
