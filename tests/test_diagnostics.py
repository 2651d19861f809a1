import numpy as np
import numpy.testing as npt
import pytest

from tprop import linalg, rnn
from tprop.activations import get_activation
from tprop.diagnostics import (
    GapReport,
    SUITES,
    Saturation,
    _identity_instance as identity_instance,
    _orthogonal_rnn,
    _tanh_instance as tanh_instance,
    approx_gd_check,
    direction_gap,
    dtp_linearization_gap,
    finite_diff_check,
    layer_jacobian_gap,
    matrix_product_gap_check,
    run_suite,
)

R_GRID = (0.0, 0.1, 1.0, 10.0, 100.0)


def near_linear_instance(seed=0):
    # tiny inputs keep tanh in its linear region, where the regularized
    # inverse is the only source of operator gap and r controls it directly
    rng = np.random.default_rng(seed)
    params = rnn.init_params(4, 3, 4, "tanh", rnn.SOFTMAX_CE, seed)
    x = 0.02 * rng.standard_normal((4, 3, 2))
    y = rng.integers(0, 4, size=2)
    return params, rnn.forward(params, x), y, rng


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_check_quadratic_machine_precision():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 5))
    H = A.T @ A + np.eye(5)
    tensors = {"x": rng.standard_normal(5)}

    def loss():
        return 0.5 * float(tensors["x"] @ H @ tensors["x"])

    grads = {"x": H @ tensors["x"]}
    rep = finite_diff_check(loss, tensors, grads, step=1e-5)
    assert rep.checked == 5
    # central differences are exact on a quadratic up to rounding
    assert rep.max_rel_err < 1e-9


def test_finite_diff_check_flags_wrong_gradient():
    tensors = {"x": np.array([1.0, 2.0])}

    def loss():
        return float(np.sum(tensors["x"] ** 2))

    rep = finite_diff_check(loss, tensors, {"x": np.array([2.0, 0.0])}, step=1e-6)
    assert rep.max_rel_err > 0.9
    assert rep.worst == ("x", 1)


def test_finite_diff_check_subsamples_coordinates():
    rng = np.random.default_rng(1)
    tensors = {"w": rng.standard_normal((10, 10))}

    def loss():
        return float(np.sum(tensors["w"] ** 2))

    grads = {"w": 2.0 * tensors["w"]}
    rep = finite_diff_check(loss, tensors, grads, max_coords=17, rng=rng)
    assert rep.checked == 17
    assert rep.max_rel_err < 1e-8


def test_finite_diff_check_restores_tensors():
    tensors = {"x": np.array([0.5, -0.3])}
    before = tensors["x"].copy()

    def loss():
        return float(np.sum(tensors["x"] ** 2))

    finite_diff_check(loss, tensors, {"x": 2 * tensors["x"].copy()})
    npt.assert_array_equal(tensors["x"], before)


# ---------------------------------------------------------------------------
# direction gap


def test_direction_gap_vanishes_identity_orthogonal_r0():
    params, cache, y = identity_instance(11)
    rep = direction_gap(params, cache, y, r=0.0)
    assert rep.measured <= 1e-12
    assert rep.bound <= 1e-10
    assert max(rep.layer_gaps) <= 1e-13


def test_direction_gap_vanishes_tanh_at_zero_state():
    # zero inputs and bias hold every pre-activation at 0 where tanh has unit
    # slope, so with an orthogonal recurrent matrix both propagators coincide
    rng = np.random.default_rng(2)
    p, d, n_out, B = 8, 4, 3, 4
    params = rnn.RnnParams(
        W_xh=0.5 * linalg.orthogonal(rng, p, d),
        W_hh=linalg.orthogonal(rng, p, p),
        b_h=np.zeros(p),
        W_hy=0.3 * linalg.orthogonal(rng, n_out, p),
        b_y=np.zeros(n_out),
        activation=get_activation("tanh"),
        output_kind=rnn.SOFTMAX_CE,
    )
    x = np.zeros((6, d, B))
    y = rng.integers(0, n_out, size=B)
    rep = direction_gap(params, rnn.forward(params, x), y, r=0.0)
    assert rep.measured <= 1e-12
    assert max(rep.layer_gaps) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direction_gap_within_bound_generic(seed):
    params, cache, y = tanh_instance(seed)
    rep = direction_gap(params, cache, y, r=1.0)
    assert not rep.violation
    assert rep.measured > 0.0
    assert rep.a >= 0 and rep.b >= 0 and rep.c >= 1.0
    assert len(rep.layer_gaps) == cache.tau


def test_direction_gap_bound_grows_with_r_near_linear():
    params, cache, y, _ = near_linear_instance(0)
    reports = [direction_gap(params, cache, y, r=r) for r in R_GRID]
    bounds = [rep.bound for rep in reports]
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi > lo
    for rep in reports:
        assert not rep.violation


# ---------------------------------------------------------------------------
# single-layer gap


def test_layer_gap_identity_orthogonal_r0_is_zero():
    params, _, _ = identity_instance(11)
    rng = np.random.default_rng(3)
    rep = layer_jacobian_gap(
        params, 0.3 * rng.standard_normal(params.p), rng.standard_normal(4), r=0.0
    )
    assert rep.measured <= 1e-12
    assert rep.bound <= 1e-12


def test_layer_gap_orthogonal_r0_equals_bound():
    # with an exactly orthogonal recurrent matrix and r = 0 the operator gap
    # is W^T (D - D^{-1}) whose norm the bound reproduces without slack
    params, cache, y, rng = near_linear_instance(0)
    h_prev = 0.01 * rng.standard_normal(4)
    x_t = 0.02 * rng.standard_normal(3)
    rep = layer_jacobian_gap(params, h_prev, x_t, r=0.0)
    npt.assert_allclose(rep.measured, rep.bound, rtol=1e-9)


def test_layer_gap_bound_grows_with_r():
    params, cache, y, rng = near_linear_instance(0)
    h_prev = 0.01 * rng.standard_normal(4)
    x_t = 0.02 * rng.standard_normal(3)
    reports = [layer_jacobian_gap(params, h_prev, x_t, r=r) for r in R_GRID]
    for rep in reports:
        assert not rep.violation
    bounds = [rep.bound for rep in reports]
    for lo, hi in zip(bounds, bounds[1:]):
        assert hi > lo


@pytest.mark.parametrize("seed", range(5))
def test_layer_gap_within_bound_generic(seed):
    rng = np.random.default_rng(1000 + seed)
    p, d = 6, 3
    params = _orthogonal_rnn(rng, p, d, 2, "tanh", w=1.1, wx=0.5, wy=1.0, bh=0.1)
    h_prev = 0.6 * (2.0 * rng.random(p) - 1.0)
    x_t = 0.5 * rng.standard_normal(d)
    rep = layer_jacobian_gap(params, h_prev, x_t, r=0.5)
    assert not rep.violation


def test_layer_gap_raises_on_saturated_state():
    rng = np.random.default_rng(5)
    p, d = 6, 3
    params = rnn.RnnParams(
        W_xh=0.5 * linalg.orthogonal(rng, p, d),
        W_hh=0.9 * linalg.orthogonal(rng, p, p),
        b_h=5.0 * np.ones(p),
        W_hy=linalg.orthogonal(rng, 2, p),
        b_y=np.zeros(2),
        activation=get_activation("tanh"),
        output_kind=rnn.SOFTMAX_CE,
    )
    with pytest.raises(Saturation):
        layer_jacobian_gap(params, np.zeros(p), np.zeros(d), r=1.0)
    assert issubclass(Saturation, ValueError)


# ---------------------------------------------------------------------------
# matrix products


def test_matrix_product_equal_factors_zero_gap(rng):
    As = [rng.standard_normal((4, 4)) for _ in range(5)]
    rep = matrix_product_gap_check(As, [A.copy() for A in As])
    assert rep.measured == 0.0
    assert rep.bound == 0.0


def test_matrix_product_single_factor_tight(rng):
    A = rng.standard_normal((3, 3))
    B = A + 0.05 * rng.standard_normal((3, 3))
    rep = matrix_product_gap_check([A], [B])
    npt.assert_allclose(rep.measured, linalg.spectral_norm(A - B), rtol=1e-12)
    npt.assert_allclose(rep.measured, rep.bound, rtol=1e-12)


def test_matrix_product_truncation_matches_manual(rng):
    As = [rng.standard_normal((3, 3)) for _ in range(4)]
    Bs = [A + 0.05 * rng.standard_normal((3, 3)) for A in As]
    rep = matrix_product_gap_check(As, Bs, t=2)
    manual = linalg.spectral_norm(As[1] @ As[0] - Bs[1] @ Bs[0])
    npt.assert_allclose(rep.measured, manual, rtol=1e-12)


@pytest.mark.parametrize("seed", range(30))
def test_matrix_product_bound_holds_random(seed):
    rng = np.random.default_rng(seed)
    As = [rng.standard_normal((6, 6)) for _ in range(5)]
    Bs = [A + 0.1 * rng.standard_normal((6, 6)) for A in As]
    rep = matrix_product_gap_check(As, Bs)
    assert not rep.violation


# ---------------------------------------------------------------------------
# descent under gradient errors


@pytest.mark.parametrize("noise,eps", [("zero", 0.0), ("constant", 0.01), ("adversarial", 0.01)])
def test_approx_gd_bound_holds(noise, eps):
    for seed in range(5):
        rep = approx_gd_check(noise=noise, eps=eps, seed=seed)
        assert not rep.violation


def test_approx_gd_small_stepsize_still_bounded():
    rep = approx_gd_check(gamma=1e-6, steps=40)
    assert not rep.violation


def test_approx_gd_rejects_oversized_stepsize():
    with pytest.raises(ValueError):
        approx_gd_check(gamma=1e9)


def test_approx_gd_rejects_unknown_noise():
    with pytest.raises(ValueError):
        approx_gd_check(noise="pink", eps=0.1)


def test_approx_gd_rejects_unknown_noise_at_zero_eps():
    # with eps = 0 no noise is ever drawn, so the mode must be checked up front
    with pytest.raises(ValueError, match="unknown noise mode"):
        approx_gd_check(noise="bogus", eps=0.0)


def test_gap_report_violation_uses_slack():
    assert GapReport(measured=1.0, bound=0.5).violation
    assert not GapReport(measured=1.0, bound=1.0).violation
    assert not GapReport(measured=1.0 + 1e-10, bound=1.0).violation


# ---------------------------------------------------------------------------
# linearization of the difference variant


def test_dtp_gap_quarters_per_halving():
    params, cache, y = tanh_instance(3, tau=8, B=4)
    gammas = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    gaps = dtp_linearization_gap(params, cache, y, gammas, r=1.0)
    assert all(g > 0 for g in gaps)
    for big, small in zip(gaps, gaps[1:]):
        assert 3.2 <= big / small <= 4.8


def test_dtp_gap_zero_for_affine_inverse():
    # the inverse of an identity-activation layer is affine, so the finite
    # difference equals the linearization at any stepsize
    params, cache, y = identity_instance(11)
    gaps = dtp_linearization_gap(params, cache, y, [1e-1, 1e-2, 1e-3], r=0.0)
    assert all(g <= 1e-10 for g in gaps)


# ---------------------------------------------------------------------------
# named suites


def test_run_suite_unknown_name():
    with pytest.raises(ValueError):
        run_suite("telemetry")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    checks = run_suite(name)
    assert checks, name
    failed = [c for c in checks if not c.passed]
    assert not failed, [(c.name, c.measured, c.bound) for c in failed]
    assert all(c.suite == name for c in checks)
