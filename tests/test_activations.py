import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tprop.activations import ACTIVATIONS, get_activation

TANH = ACTIVATIONS["tanh"]
SIGMOID = ACTIVATIONS["sigmoid"]
IDENTITY = ACTIVATIONS["identity"]

INTERIOR = {
    # strictly inside each projected image, comfortably away from the clip
    "tanh": (-0.95, 0.95),
    "sigmoid": (0.05, 0.95),
    "identity": (-50.0, 50.0),
}


def test_apply_fixed_points():
    npt.assert_allclose(TANH.apply(np.array([0.0])), [0.0], atol=1e-15)
    npt.assert_allclose(SIGMOID.apply(np.array([0.0])), [0.5], atol=1e-15)
    with np.errstate(over="raise"):  # saturates without an overflow warning
        npt.assert_allclose(SIGMOID.apply(np.array([-1000.0, 1000.0])), [0.0, 1.0], atol=0)
    u = np.array([-2.0, 0.3, 7.0])
    npt.assert_allclose(IDENTITY.apply(u), u, atol=0)


def test_deriv_fixed_points():
    # deriv takes the output a(u), not u
    npt.assert_allclose(TANH.deriv(TANH.apply(np.array([0.0]))), [1.0], atol=1e-15)
    npt.assert_allclose(SIGMOID.deriv(SIGMOID.apply(np.array([0.0]))), [0.25], atol=1e-15)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_deriv_matches_finite_difference(name, rng):
    act = ACTIVATIONS[name]
    u = rng.uniform(0.2, 1.5, size=40)
    step = 1e-6
    fd = (act.apply(u + step) - act.apply(u - step)) / (2 * step)
    npt.assert_allclose(act.deriv(act.apply(u)), fd, rtol=1e-6, atol=1e-9)


def test_project_tanh_clips():
    npt.assert_allclose(TANH.project(np.array([1.5]), 1e-3), [0.999], atol=1e-15)
    npt.assert_allclose(TANH.project(np.array([0.3]), 1e-3), [0.3], atol=1e-15)


def test_project_sigmoid_lower_clip():
    npt.assert_allclose(SIGMOID.project(np.array([-0.2]), 1e-3), [0.001], atol=1e-15)


def test_identity_project_is_noop():
    v = np.array([-1e6, 0.0, 1e6])
    npt.assert_allclose(IDENTITY.project(v, 1e-3), v, atol=0)


def test_inverse_round_trip_scalar():
    v = np.tanh(np.array([0.3]))
    npt.assert_allclose(TANH.inverse(v), [0.3], atol=1e-12)
    npt.assert_allclose(SIGMOID.inverse(np.array([0.5])), [0.0], atol=1e-15)


def test_inverse_near_clip_matches_reference_value():
    # atanh(0.999) from an independent high-precision evaluation
    npt.assert_allclose(TANH.inverse(np.array([0.999])), [3.8002011672501624], rtol=1e-12)
    # logit(0.999) = log(999)
    npt.assert_allclose(SIGMOID.inverse(np.array([0.999])), [6.906754778648554], rtol=1e-12)


def test_inverse_out_of_range_raises():
    # inputs outside the projected range are read at their projection: the
    # values are finite and the same bits as at project(v)
    cases = ((TANH, [0.9999, 1.0, -1.0]), (SIGMOID, [-0.1, 0.0, 1.0]))
    for act, values in cases:
        v = np.array(values)
        pv = act.project(v, 1e-3)
        for fn in (act.inverse, act.inv_deriv):
            out = fn(v, eps=1e-3)
            assert np.all(np.isfinite(out)), (act.name, fn.__name__)
            assert out.tobytes() == fn(pv, eps=1e-3).tobytes(), (act.name, fn.__name__)


def test_inv_deriv_fixed_points():
    npt.assert_allclose(TANH.inv_deriv(np.array([0.0])), [1.0], atol=1e-15)
    npt.assert_allclose(SIGMOID.inv_deriv(np.array([0.5])), [4.0], atol=1e-12)
    npt.assert_allclose(IDENTITY.inv_deriv(np.array([17.0])), [1.0], atol=0)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_inv_deriv_matches_finite_difference_of_inverse(name, rng):
    act = ACTIVATIONS[name]
    lo, hi = act.projected_range(1e-3)
    lo = max(lo, -3.0) + 0.05
    hi = min(hi, 3.0) - 0.05
    v = rng.uniform(lo, hi, size=40)
    step = 1e-7
    fd = (act.inverse(v + step) - act.inverse(v - step)) / (2 * step)
    npt.assert_allclose(act.inv_deriv(v), fd, rtol=1e-5)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_inverse_function_theorem(name, rng):
    act = ACTIVATIONS[name]
    lo, hi = INTERIOR[name]
    v = rng.uniform(lo, hi, size=30)
    # a'(u) at the u = a^{-1}(v) whose output is v
    prod = act.deriv(act.apply(act.inverse(v))) * act.inv_deriv(v)
    npt.assert_allclose(prod, np.ones_like(v), atol=1e-10)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_apply_after_inverse_recovers(name, rng):
    act = ACTIVATIONS[name]
    lo, hi = act.projected_range(1e-3)
    v = rng.uniform(max(lo, -0.9), min(hi, 0.9), size=30)
    npt.assert_allclose(act.apply(act.inverse(v)), v, atol=1e-10)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
@given(data=st.data())
def test_projection_idempotent_and_nonexpansive(name, data):
    act = ACTIVATIONS[name]
    shape = (7,)
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-5, 5)))
    y = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-5, 5)))
    px = act.project(x, 1e-3)
    npt.assert_allclose(act.project(px, 1e-3), px, atol=0)
    assert np.linalg.norm(px - act.project(y, 1e-3)) <= np.linalg.norm(x - y) + 1e-12


def test_get_activation_rejects_unknown():
    for name in ("swish", "relu"):
        with pytest.raises(ValueError, match=r"expected one of \['identity', 'sigmoid', 'tanh'\]"):
            get_activation(name)
    assert get_activation("tanh") is TANH
