import numpy as np
import numpy.testing as npt
import pytest

from tprop.activations import ACTIVATIONS
from tprop.linalg import factorization_count
from tprop.rnn import (
    MSE,
    CacheMismatch,
    RnnParams,
    bptt,
    forward,
    init_params,
    output_delta,
)
from tprop.targetprop import (
    EXACT_INVERSE,
    FINITE_DIFFERENCE,
    LINEARIZED,
    TpHyper,
    inverse_apply,
    precompute_V,
    tp_direction,
)

THETA_H = ("W_xh", "W_hh", "b_h")


def hyper(**kw):
    base = dict(gamma_h=1e-2, gamma_theta=1e-1, r=1.0, epsilon=1e-3, variant=LINEARIZED)
    base.update(kw)
    return TpHyper(**base)


def linear_orthogonal_params(p, d, n_out, seed, output_kind=MSE):
    params = init_params(p, d, n_out, activation="identity", output_kind=output_kind, seed=seed)
    return params


def inverse_jacobian_T_apply(params, V, h_t, lam, eps=1e-3):
    """The linearized inverse step V diag(da^{-1}(proj(h_t))) lam, one step
    at a time: the operator TP applies in place of backprop's transposed
    layer Jacobian W_hh^T diag(a'(u_t))."""
    act = params.activation
    s = act.inv_deriv(np.clip(h_t, *act.projected_range(eps)), eps)
    return V @ (s * lam)


def test_precompute_v_orthogonal_r0_is_transpose():
    params = init_params(6, 2, 2, seed=0)
    V = precompute_V(params, 0.0)
    npt.assert_allclose(V, params.W_hh.T, atol=1e-9)


def test_precompute_v_scalar():
    params = init_params(1, 1, 1, seed=0)
    params.W_hh[...] = [[2.0]]
    npt.assert_allclose(precompute_V(params, 4.0), [[0.25]], atol=1e-14)


def test_precompute_v_against_dense_solve():
    params = init_params(100, 6, 4, seed=3)
    V = precompute_V(params, 1.0)
    A = params.W_hh.T @ params.W_hh + np.eye(100)
    V_oracle = np.linalg.solve(A, params.W_hh.T)
    npt.assert_allclose(V, V_oracle, atol=1e-10)


def test_inverse_apply_identity_layer_is_identity():
    params = RnnParams(
        W_xh=np.zeros((3, 2)),
        W_hh=np.eye(3),
        b_h=np.zeros(3),
        W_hy=np.zeros((2, 3)),
        b_y=np.zeros(2),
        activation=ACTIVATIONS["identity"],
        output_kind=MSE,
    )
    V = precompute_V(params, 0.0)
    v = np.array([[0.3], [-1.7], [4.0]])
    x = np.zeros((2, 1))
    npt.assert_allclose(inverse_apply(params, V, x, v), v, atol=1e-12)


def test_inverse_apply_round_trip(rng):
    params = init_params(5, 3, 2, activation="tanh", seed=7)
    V = precompute_V(params, 0.0)
    h = 0.4 * rng.uniform(-1.0, 1.0, size=(5, 4))
    x = 0.3 * rng.standard_normal((3, 4))
    v = np.tanh(params.W_xh @ x + params.W_hh @ h + params.b_h[:, None])
    npt.assert_allclose(inverse_apply(params, V, x, v), h, atol=1e-8)


def test_inverse_apply_projects_out_of_range_targets(rng):
    params = init_params(4, 2, 2, activation="tanh", seed=1)
    V = precompute_V(params, 0.5)
    x = rng.standard_normal((2, 3))
    v_wild = np.array([[1.4, -2.0, 0.2], [0.9, 3.0, -0.4], [0.1, 0.2, 0.3], [-5.0, 0.0, 0.99]])
    v_proj = np.clip(v_wild, -1 + 1e-3, 1 - 1e-3)
    npt.assert_allclose(
        inverse_apply(params, V, x, v_wild), inverse_apply(params, V, x, v_proj), atol=0
    )


def test_inverse_jacobian_apply_linear_orthogonal_regime(rng):
    # identity activation, orthogonal W_hh, r=0: the operator reduces to W_hh^T,
    # which is the transposed one-step state Jacobian in this regime
    params = linear_orthogonal_params(6, 2, 2, seed=4)
    V = precompute_V(params, 0.0)
    lam = rng.standard_normal((6, 3))
    out = inverse_jacobian_T_apply(params, V, rng.standard_normal((6, 3)), lam)
    npt.assert_allclose(out, params.W_hh.T @ lam, atol=1e-9)


def test_inverse_jacobian_apply_zero_displacement(rng):
    params = init_params(5, 2, 2, seed=2)
    V = precompute_V(params, 1.0)
    h = 0.5 * rng.uniform(-1, 1, size=(5, 2))
    out = inverse_jacobian_T_apply(params, V, h, np.zeros((5, 2)))
    npt.assert_allclose(out, 0.0, atol=0)


def test_inverse_jacobian_apply_matches_directional_fd(rng):
    params = init_params(5, 3, 2, activation="tanh", seed=9)
    V = precompute_V(params, 0.7)
    h = 0.5 * rng.uniform(-1, 1, size=(5, 1))
    x = 0.3 * rng.standard_normal((3, 1))
    lam = rng.standard_normal((5, 1))
    analytic = inverse_jacobian_T_apply(params, V, h, lam)
    s = 1e-6
    fd = (inverse_apply(params, V, x, h + s * lam) - inverse_apply(params, V, x, h - s * lam)) / (
        2 * s
    )
    npt.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-10)


def _per_step_reference(params, cache, lam, step):
    """The loop form of the backward sweep: each step's outer products are
    accumulated as the recursion goes, and step(t, lam, e) is applied with
    nothing computed ahead of the loop. Written for tanh, with u_t rebuilt
    from the params rather than read back from the states."""
    d = {k: np.zeros_like(v) for k, v in params.tensors().items() if k in THETA_H}
    for t in range(cache.tau - 1, -1, -1):
        u = params.W_xh @ cache.xs[t] + params.W_hh @ cache.hs[t] + params.b_h[:, None]
        e = (1.0 - np.tanh(u) ** 2) * lam
        d["W_hh"] += e @ cache.hs[t].T
        d["W_xh"] += e @ cache.xs[t].T
        d["b_h"] += e.sum(axis=1)
        if t > 0:
            lam = step(t, lam, e)
    return d


@pytest.mark.parametrize("rule", ["bp", "debug", LINEARIZED, FINITE_DIFFERENCE, EXACT_INVERSE])
def test_sweep_matches_per_step_reference(rng, rule):
    # the sweep stacks the per-step errors and contracts them after the loop,
    # so sums run in another order: equal up to float64 rounding
    params = init_params(8, 3, 4, activation="tanh", seed=5)
    cache = forward(params, 0.5 * rng.standard_normal((30, 3, 5)))
    y = rng.integers(0, 4, size=5)
    hy = hyper(variant=LINEARIZED if rule in ("bp", "debug") else rule)
    V = precompute_V(params, hy.r)
    eps = hy.epsilon
    g_tau = params.W_hy.T @ output_delta(y, cache)

    def transposed_jacobian(t, lam, e):
        return params.W_hh.T @ e

    def inv(t, v):
        return inverse_apply(params, V, cache.xs[t], v, eps)

    steps = {
        "bp": transposed_jacobian,
        "debug": transposed_jacobian,
        LINEARIZED: lambda t, lam, e: inverse_jacobian_T_apply(
            params, V, cache.hs[t + 1], lam, eps),
        FINITE_DIFFERENCE: lambda t, lam, e: (
            inv(t, cache.hs[t + 1] + lam) - inv(t, cache.hs[t + 1])),
        EXACT_INVERSE: lambda t, lam, e: inv(t, cache.hs[t + 1] + lam) - cache.hs[t],
    }
    if rule == "bp":
        got, lam = bptt(params, cache, y), g_tau
    elif rule == "debug":
        got = tp_direction(params, cache, y, hy, debug_true_jacobian=True)
        lam = -hy.gamma_h * g_tau
    else:
        got, lam = tp_direction(params, cache, y, hy), -hy.gamma_h * g_tau
    want = _per_step_reference(params, cache, lam, steps[rule])
    for name in THETA_H:
        npt.assert_allclose(got[name], want[name], rtol=1e-12,
                            atol=1e-15 * np.abs(want[name]).max())


def test_backward_targets_equivalence_in_linear_orthogonal_regime(rng):
    # with identity activation, orthogonal recurrence and r=0 the backward operator
    # equals the BPTT operator, so directions coincide up to the -gamma_h factor
    for seed in range(3):
        gen = np.random.default_rng(seed)
        tau = int(gen.integers(2, 21))
        p = int(gen.integers(2, 17))
        params = linear_orthogonal_params(p, 3, 2, seed=seed)
        xs = 0.5 * gen.standard_normal((tau, 3, 4))
        y = gen.standard_normal((2, 4))
        cache = forward(params, xs)
        hy = hyper(gamma_h=0.37, r=0.0)
        d = tp_direction(params, cache, y, hy)
        g = bptt(params, cache, y)
        for name in THETA_H:
            npt.assert_allclose(d[name], -0.37 * g[name], rtol=1e-8, atol=1e-12)
        for name in ("W_hy", "b_y"):
            npt.assert_allclose(d[name], -g[name], rtol=1e-12, atol=1e-14)


def test_backward_targets_linear_in_gamma_h(rng):
    params = init_params(6, 3, 3, seed=5)
    xs = rng.standard_normal((8, 3, 4))
    y = rng.integers(0, 3, size=4)
    cache = forward(params, xs)
    g = 0.0125
    d1 = tp_direction(params, cache, y, hyper(gamma_h=g))
    d2 = tp_direction(params, cache, y, hyper(gamma_h=2 * g))
    for name in THETA_H:
        npt.assert_allclose(d2[name], 2.0 * d1[name], rtol=1e-12)
    npt.assert_allclose(d2["W_hy"], d1["W_hy"], atol=0)
    npt.assert_allclose(d2["b_y"], d1["b_y"], atol=0)


def test_backward_targets_finite_at_experiment_scale(rng):
    params = init_params(100, 6, 4, seed=0)
    xs = rng.standard_normal((60, 6, 20))
    y = rng.integers(0, 4, size=20)
    cache = forward(params, xs)
    d = tp_direction(params, cache, y, hyper(gamma_h=1e-2, gamma_theta=1e-1, r=10.0))
    for name, tensor in d.items():
        assert np.all(np.isfinite(tensor)), name


def test_backward_targets_one_factorization_per_call(rng):
    params = init_params(8, 3, 2, seed=1)
    for tau, B in ((5, 2), (40, 7)):
        xs = rng.standard_normal((tau, 3, B))
        y = rng.integers(0, 2, size=B)
        cache = forward(params, xs)
        before = factorization_count()
        tp_direction(params, cache, y, hyper())
        assert factorization_count() - before == 1


def test_backward_rejects_cache_without_states():
    params = init_params(4, 2, 3, seed=0)
    lean = forward(params, np.zeros((3, 2, 2)), states=False)
    y = np.zeros(2, dtype=np.int64)
    passes = [lambda: tp_direction(params, lean, y, hyper()),
              lambda: tp_direction(params, lean, y, hyper(), debug_true_jacobian=True)]
    passes += [lambda v=v: tp_direction(params, lean, y, hyper(variant=v))
               for v in (LINEARIZED, FINITE_DIFFERENCE, EXACT_INVERSE)]
    for backward in passes:
        with pytest.raises(CacheMismatch, match="states=False"):
            backward()


def test_debug_true_jacobian_reproduces_bptt_for_any_activation(rng):
    for name in ("tanh", "sigmoid"):
        params = init_params(6, 3, 3, activation=name, seed=8)
        xs = rng.standard_normal((7, 3, 4))
        y = rng.integers(0, 3, size=4)
        cache = forward(params, xs)
        gh = 0.05
        d = tp_direction(params, cache, y, hyper(gamma_h=gh), debug_true_jacobian=True)
        g = bptt(params, cache, y)
        for tensor in THETA_H:
            npt.assert_allclose(d[tensor], -gh * g[tensor], rtol=1e-10, atol=1e-14)


def test_dtp_zero_gamma_h_gives_zero_direction(rng):
    params = init_params(5, 2, 2, seed=3)
    xs = rng.standard_normal((6, 2, 3))
    y = rng.integers(0, 2, size=3)
    cache = forward(params, xs)
    d = tp_direction(params, cache, y, hyper(gamma_h=0.0, variant=FINITE_DIFFERENCE))
    for name in THETA_H:
        npt.assert_allclose(d[name], 0.0, atol=0)


def test_dtp_matches_exact_variant_when_inverses_are_exact(rng):
    # r=0 and orthogonal recurrence: f^{-1}(h_t) recovers h_{t-1} to machine
    # precision, and the difference rule collapses onto pure inversion
    params = init_params(5, 2, 2, activation="tanh", seed=6)
    xs = 0.3 * rng.standard_normal((5, 2, 3))
    y = rng.standard_normal((2, 3))
    params.output_kind = MSE
    cache = forward(params, xs)
    hy_fd = hyper(gamma_h=1e-3, r=0.0, variant=FINITE_DIFFERENCE)
    hy_ex = hyper(gamma_h=1e-3, r=0.0, variant=EXACT_INVERSE)
    d_fd = tp_direction(params, cache, y, hy_fd)
    d_ex = tp_direction(params, cache, y, hy_ex)
    for name in THETA_H:
        npt.assert_allclose(d_fd[name], d_ex[name], atol=1e-8)


def test_exact_inverse_fixed_point_zero_direction(rng):
    params = init_params(5, 2, 2, seed=12)
    xs = 0.3 * rng.standard_normal((4, 2, 3))
    y = rng.integers(0, 2, size=3)
    cache = forward(params, xs)
    d = tp_direction(params, cache, y, hyper(gamma_h=0.0, r=0.0, variant=EXACT_INVERSE))
    for name in THETA_H:
        npt.assert_allclose(d[name], 0.0, atol=1e-10)


def test_exact_inverse_equals_linearized_for_identity_unit_recurrence(rng):
    params = RnnParams(
        W_xh=0.3 * rng.standard_normal((4, 2)),
        W_hh=np.eye(4),
        b_h=np.zeros(4),
        W_hy=0.3 * rng.standard_normal((2, 4)),
        b_y=np.zeros(2),
        activation=ACTIVATIONS["identity"],
        output_kind=MSE,
    )
    xs = rng.standard_normal((5, 2, 3))
    y = rng.standard_normal((2, 3))
    cache = forward(params, xs)
    d_lin = tp_direction(params, cache, y, hyper(gamma_h=0.05, r=0.0))
    d_ex = tp_direction(params, cache, y, hyper(gamma_h=0.05, r=0.0, variant=EXACT_INVERSE))
    for name in THETA_H:
        npt.assert_allclose(d_ex[name], d_lin[name], atol=1e-10)


def test_tphyper_rejects_unknown_variant():
    with pytest.raises(ValueError):
        TpHyper(gamma_h=1e-2, gamma_theta=0.1, r=1.0, epsilon=1e-3, variant="newton")
