import numpy as np
import numpy.testing as npt
import pytest

from tprop import gru, rnn
from tprop.activations import ACTIVATIONS
from tprop.linalg import factorization_count, ridge_pinv
from tprop.rnn import (
    _BLOCK,
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
    tp_direction,
)

THETA_H = ("W_xh", "W_hh", "b_h")

# Test ids name each rule by its identifier; other parameters keep pytest's ids.
_RULE_IDS = {LINEARIZED: "linearized", FINITE_DIFFERENCE: "finite_difference",
             EXACT_INVERSE: "exact_inverse"}


def rule_id(value):
    return _RULE_IDS.get(value) if isinstance(value, str) else None


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
    V = ridge_pinv(params.W_hh, 0.0)
    npt.assert_allclose(V, params.W_hh.T, atol=1e-9)


def test_precompute_v_scalar():
    params = init_params(1, 1, 1, seed=0)
    params.W_hh[...] = [[2.0]]
    npt.assert_allclose(ridge_pinv(params.W_hh, 4.0), [[0.25]], atol=1e-14)


def test_precompute_v_against_dense_solve():
    params = init_params(100, 6, 4, seed=3)
    V = ridge_pinv(params.W_hh, 1.0)
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
    V = ridge_pinv(params.W_hh, 0.0)
    v = np.array([[0.3], [-1.7], [4.0]])
    x = np.zeros((2, 1))
    npt.assert_allclose(inverse_apply(params, V, x, v), v, atol=1e-12)


def test_inverse_apply_round_trip(rng):
    params = init_params(5, 3, 2, activation="tanh", seed=7)
    V = ridge_pinv(params.W_hh, 0.0)
    h = 0.4 * rng.uniform(-1.0, 1.0, size=(5, 4))
    x = 0.3 * rng.standard_normal((3, 4))
    v = np.tanh(params.W_xh @ x + params.W_hh @ h + params.b_h[:, None])
    npt.assert_allclose(inverse_apply(params, V, x, v), h, atol=1e-8)


def test_inverse_apply_projects_out_of_range_targets(rng):
    params = init_params(4, 2, 2, activation="tanh", seed=1)
    V = ridge_pinv(params.W_hh, 0.5)
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
    V = ridge_pinv(params.W_hh, 0.0)
    lam = rng.standard_normal((6, 3))
    out = inverse_jacobian_T_apply(params, V, rng.standard_normal((6, 3)), lam)
    npt.assert_allclose(out, params.W_hh.T @ lam, atol=1e-9)


def test_inverse_jacobian_apply_zero_displacement(rng):
    params = init_params(5, 2, 2, seed=2)
    V = ridge_pinv(params.W_hh, 1.0)
    h = 0.5 * rng.uniform(-1, 1, size=(5, 2))
    out = inverse_jacobian_T_apply(params, V, h, np.zeros((5, 2)))
    npt.assert_allclose(out, 0.0, atol=0)


def test_inverse_jacobian_apply_matches_directional_fd(rng):
    params = init_params(5, 3, 2, activation="tanh", seed=9)
    V = ridge_pinv(params.W_hh, 0.7)
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


@pytest.mark.parametrize("rule", ["bp", "debug", LINEARIZED, FINITE_DIFFERENCE, EXACT_INVERSE],
                         ids=rule_id)
def test_sweep_matches_per_step_reference(rng, rule):
    # the sweep stacks a block's errors and contracts them once the recursion
    # has left the block, so sums run in another order: equal up to float64
    # rounding. The lengths put the block edges at every position.
    C = _BLOCK
    params = init_params(8, 3, 4, activation="tanh", seed=5)
    for tau in (1, C - 1, C, C + 1, 2 * C + 3):
        cache = forward(params, 0.5 * rng.standard_normal((tau, 3, 5)))
        y = rng.integers(0, 4, size=5)
        hy = hyper(variant=LINEARIZED if rule in ("bp", "debug") else rule)
        V = ridge_pinv(params.W_hh, hy.r)
        eps, act = hy.epsilon, params.activation
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
            # inv(t, h + lam) - inv(t, h) with the arguments differenced
            # first: W_xh x_t + b_h cancels, one product with V remains
            FINITE_DIFFERENCE: lambda t, lam, e: V @ (
                act.inverse(cache.hs[t + 1] + lam, eps) - act.inverse(cache.hs[t + 1], eps)),
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
                                atol=1e-15 * np.abs(want[name]).max(), err_msg=(tau, name))


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _saturated_case(gen, activation, d=2, p=6):
    """A small random RNN, a cache and labels, with input weights scaled up
    so that many states reach the projection's clip."""
    tau, B = int(gen.integers(2, 30)), int(gen.integers(1, 6))
    params = init_params(p, d, 3, activation=activation, seed=int(gen.integers(1 << 30)))
    params.W_xh *= 3.0
    params.b_h[:] = gen.standard_normal(p)
    cache = forward(params, 2.0 * gen.standard_normal((tau, d, B)))
    return params, cache, gen.integers(0, 3, size=B)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_deriv_floor_reproduces_inv_deriv_bit_for_bit(name):
    # The linearized rule forms 1 / max(a'(h), floor) in place of
    # inv_deriv(h, eps) = 1 / a'(proj(h)). Tanh's and identity's two clip
    # ends give a' one value, so the bits match; sigmoid's ends eps and
    # 1 - eps round apart, so its floor is the smaller and S moves by an ulp.
    act = ACTIVATIONS[name]
    gen = np.random.default_rng(1)
    for eps in (1e-3, 1e-2, 0.3, 0.49):
        floor = act.deriv_floor(eps)
        edge = 1.0 - eps
        near = np.concatenate([edge + np.arange(-3000, 3001) * np.spacing(edge),
                               np.linspace(edge - 1e-6, edge + 1e-6, 2001),
                               np.linspace(edge - 0.05, min(edge + 0.05, 1.0), 2001)])
        h = np.concatenate([near, -near, 1.0 - near, gen.uniform(-1.0, 1.0, 20000),
                            [-1.0, 0.0, 1.0]])
        got, want = 1.0 / np.maximum(act.deriv(h), floor), act.inv_deriv(h, eps)
        if name == "sigmoid":
            npt.assert_allclose(got, want, rtol=1e-15, atol=0, err_msg=str(eps))
        else:
            assert _same_bits(got, want), eps


def test_linearized_direction_matches_an_inv_deriv_propagator_bit_for_bit():
    # The rule reads S_t off the sweep's a'(u_t) block. A propagator that
    # forms S_t from the states by inv_deriv, as the rule is defined, gives
    # the same bits for tanh and identity, also where the projection clips;
    # sigmoid's S_t moves by an ulp at a clip end (see the floor test above).
    gen = np.random.default_rng(2)
    cases = [("tanh", i) for i in range(120)] + [(n, i) for n in ("identity", "sigmoid")
                                                 for i in range(20)]
    for name, i in cases:
        params, cache, y = _saturated_case(gen, name)
        hy = hyper(gamma_h=float(gen.choice([1e-3, 1e-2, 0.5])),
                   epsilon=float(gen.choice([1e-3, 1e-2, 0.3, 0.49])))
        V = ridge_pinv(params.W_hh, hy.r)
        act, hs = params.activation, cache.hs
        if name == "tanh":
            assert np.any(act.project(hs[1:], hy.epsilon) != hs[1:]), i  # the clip is active

        def by_inv_deriv(lo, hi, es):
            S = act.inv_deriv(hs[lo + 1:hi + 1], hy.epsilon)
            return lambda j, lam: V @ (S[j] * lam)

        want = rnn._backward(params, cache, y, rnn._blocks, by_inv_deriv, hy.gamma_h)
        got = tp_direction(params, cache, y, hy)
        for k in want:
            if name == "sigmoid":
                gap = np.linalg.norm(got[k] - want[k]) / np.linalg.norm(want[k])
                assert gap <= 1e-13, (i, k, gap)
            else:
                assert _same_bits(got[k], want[k]), (name, i, k)


def test_finite_difference_stays_within_1e_10_of_two_inverse_applications():
    # The rule differences a^{-1}(proj(.)) before its one product with V, so
    # W_xh x_t + b_h, which cancels, is never formed. That reorders float64
    # arithmetic against differencing two applications of inverse_apply.
    gen = np.random.default_rng(3)
    for i in range(60):
        name = ("tanh", "sigmoid")[i % 2]
        params, cache, y = _saturated_case(gen, name, d=(1, 3)[i // 2 % 2])
        hy = hyper(gamma_h=float(gen.choice([1e-3, 1e-2, 0.1])), variant=FINITE_DIFFERENCE,
                   epsilon=float(gen.choice([1e-3, 1e-2, 0.3])))
        V = ridge_pinv(params.W_hh, hy.r)
        xs, hs, eps = cache.xs, cache.hs, hy.epsilon

        def two_inverses(lo, hi, es):
            ref = inverse_apply(params, V, xs[lo:hi], hs[lo + 1:hi + 1], eps)
            return lambda j, lam: (
                inverse_apply(params, V, xs[lo + j], hs[lo + j + 1] + lam, eps) - ref[j])

        want = rnn._backward(params, cache, y, rnn._blocks, two_inverses, hy.gamma_h)
        got = tp_direction(params, cache, y, hy)
        for k in THETA_H:
            gap = np.linalg.norm(got[k] - want[k]) / np.linalg.norm(want[k])
            assert gap <= 1e-10, (name, i, k, gap)


@pytest.mark.parametrize("d", [1, 3])
def test_exact_inverse_with_hoisted_projections_keeps_every_bit(d):
    # The rule forms a block's W_xh x_t at once; stepping through
    # inverse_apply, which projects one step's inputs, gives the same bits.
    gen = np.random.default_rng(4 + d)
    for i in range(30):
        params, cache, y = _saturated_case(gen, ("tanh", "sigmoid", "identity")[i % 3], d=d)
        hy = hyper(gamma_h=float(gen.choice([1e-3, 1e-2, 0.1])), variant=EXACT_INVERSE,
                   epsilon=float(gen.choice([1e-3, 1e-2, 0.3])))
        V = ridge_pinv(params.W_hh, hy.r)
        xs, hs, eps = cache.xs, cache.hs, hy.epsilon

        def per_step(lo, hi, es):
            return lambda j, lam: (
                inverse_apply(params, V, xs[lo + j], hs[lo + j + 1] + lam, eps) - hs[lo + j])

        want = rnn._backward(params, cache, y, rnn._blocks, per_step, hy.gamma_h)
        got = tp_direction(params, cache, y, hy)
        for k in want:
            assert _same_bits(got[k], want[k]), (i, k)


@pytest.mark.parametrize("variant, bound", [
    ("bptt", 3.7), (LINEARIZED, 4.4), (FINITE_DIFFERENCE, 6.9), (EXACT_INVERSE, 4.9),
    ("gru_bptt", 18.5), ("gru_tp_backward", 23.0)], ids=rule_id)
def test_tp_direction_peak_in_block_buffers(rng, traced_peak, variant, bound):
    # Counted in (_BLOCK, p, B) float64 blocks allocated above the params,
    # inputs and states; bptt peaks near 3.5 of them. The linearized rule
    # holds one block for S next to the a' block, where an inv_deriv call
    # held three more temporaries, and the backward pass frees each block's
    # flattened errors before it forms the next block's a' block. The GRU
    # re-runs each block into its block buffers (near 17.7 blocks for gru
    # bptt), and its contraction's (3, p, p) product is freed with the block.
    # Gru tp peaks near 22.1, with its gate slopes, 1 / max(g (1 - g),
    # floor), formed in place in their own two blocks.
    p, B = 100, 20
    xs = rng.standard_normal((60, 1, B))
    y = rng.integers(0, 4, size=B)
    if variant.startswith("gru"):
        params = gru.init_gru_params(p, 1, 4, seed=0)
        cache = gru.gru_forward(params, xs)
        if variant == "gru_bptt":
            peak = traced_peak(lambda: gru.gru_bptt(params, cache, y))
        else:
            peak = traced_peak(lambda: gru.gru_tp_backward(params, cache, y, hyper()))
    else:
        params = init_params(p, 1, 4, seed=0)
        cache = forward(params, xs)
        if variant == "bptt":
            peak = traced_peak(lambda: bptt(params, cache, y))
        else:
            hy = hyper(variant=variant)
            peak = traced_peak(lambda: tp_direction(params, cache, y, hy))
    assert peak <= bound * _BLOCK * p * B * 8, peak / (_BLOCK * p * B * 8)


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


@pytest.mark.parametrize("field, value", [
    ("epsilon", 0.0), ("epsilon", -0.1), ("epsilon", 0.5), ("epsilon", 0.7),
    ("epsilon", float("nan")), ("gamma_h", -1e-3), ("gamma_h", float("nan")),
    ("gamma_h", float("inf")),
])
def test_tphyper_rejects_bad_margin_and_target_stepsize(field, value):
    # Outside these ranges every rule returns non-finite directions, so the
    # hyperparameters are refused when they are built.
    with pytest.raises(ValueError, match=field):
        hyper(**{field: value})


@pytest.mark.parametrize("r", [-1.0, float("nan"), float("inf")])
def test_tphyper_rejects_a_bad_ridge_coefficient(r):
    # refused when built, not inside the first backward pass's ridge_pinv
    with pytest.raises(ValueError, match=r"^r must be finite and >= 0"):
        hyper(r=r)
