import dataclasses
import itertools

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprop import gru, rnn, targetprop
from tprop.activations import ACTIVATIONS
from tprop.linalg import DimensionMismatch
from tprop.rnn import (
    _BLOCK,
    MSE,
    SOFTMAX_CE,
    CacheMismatch,
    LabelMismatch,
    RnnParams,
    bptt,
    forward,
    init_params,
    loss,
    output_delta,
    softmax,
)


def tiny_identity_params():
    return RnnParams(
        W_xh=np.array([[1.0]]),
        W_hh=np.array([[1.0]]),
        b_h=np.zeros(1),
        W_hy=np.array([[1.0]]),
        b_y=np.zeros(1),
        activation=ACTIVATIONS["identity"],
        output_kind=MSE,
    )


def test_forward_hand_arithmetic():
    # h_t = h_{t-1} + x_t with unit weights, so h_1 = 1, h_2 = 2
    params = tiny_identity_params()
    xs = np.ones((2, 1, 1))
    cache = forward(params, xs)
    npt.assert_allclose(cache.hs[1], [[1.0]], atol=0)
    npt.assert_allclose(cache.hs[2], [[2.0]], atol=0)
    npt.assert_allclose(cache.y_hat, [[2.0]], atol=0)


def test_forward_zero_weights_constant_state(rng):
    for name in ("tanh", "sigmoid"):
        params = init_params(4, 3, 2, activation=name, seed=0)
        for t in params.tensors().values():
            t[...] = 0.0
        xs = rng.standard_normal((5, 3, 2))
        cache = forward(params, xs)
        a0 = ACTIVATIONS[name].apply(np.zeros(1))[0]
        for t in range(1, 6):
            npt.assert_allclose(cache.hs[t], np.full((4, 2), a0), atol=1e-15)


def test_forward_shapes_at_experiment_scale(rng):
    params = init_params(100, 6, 4, seed=1)
    xs = rng.standard_normal((60, 6, 20))
    cache = forward(params, xs)
    assert cache.tau == 60 and cache.batch == 20
    assert len(cache.hs) == 61
    for h in cache.hs[1:]:
        assert h.shape == (100, 20)
    assert cache.y_hat.shape == (4, 20)


def test_forward_cache_states_match_preactivations(rng):
    # Every h_t carries the bits of the plain per-step formula: on both sides
    # of the backward pass's block edges (C = 8) and at pixel length.
    for name, d, tau in itertools.product(sorted(ACTIVATIONS), (1, 3), (1, 7, 8, 9, 23, 784)):
        act = ACTIVATIONS[name]
        params = init_params(6, d, 3, name, seed=5)
        params.b_h[:] = rng.standard_normal(6) * 0.1
        xs = rng.standard_normal((tau, d, 2))
        cache = forward(params, xs)
        npt.assert_allclose(cache.hs[0], 0.0, atol=0)
        h = np.zeros((6, 2))
        for t in range(tau):
            h = act.apply(params.W_xh @ xs[t] + params.W_hh @ h + params.b_h[:, None])
            assert cache.hs[t + 1].tobytes() == h.tobytes(), (name, d, tau, t)


def test_forward_dimension_mismatch():
    params = init_params(4, 3, 2, seed=0)
    from tprop.linalg import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        forward(params, np.zeros((5, 7, 2)))
    with pytest.raises(DimensionMismatch):  # an empty batch has no mean loss
        forward(params, np.zeros((5, 3, 0)))


@pytest.mark.parametrize("output_kind", [SOFTMAX_CE, MSE])
def test_forward_writes_states_into_out(rng, output_kind):
    params = init_params(6, 3, 2, output_kind=output_kind, seed=3)
    C = _BLOCK
    for tau in (1, C - 1, C, C + 1, 2 * C + 3):
        xs = rng.standard_normal((tau, 3, 5))
        fresh = forward(params, xs)
        buf = np.full((tau + 1, 6, 5), np.nan)
        cache = forward(params, xs, out=buf)
        assert cache.hs is buf, tau
        assert buf.tobytes() == fresh.hs.tobytes(), tau
        assert cache.logits.tobytes() == fresh.logits.tobytes(), tau
        assert cache.y_hat.tobytes() == fresh.y_hat.tobytes(), tau


def test_forward_rejects_unfit_out():
    params = init_params(4, 3, 2, seed=0)
    xs = np.zeros((5, 3, 2))
    unfit = (
        np.zeros((5, 4, 2)),                       # one state short
        np.zeros((6, 2, 4)),                       # p and B swapped
        np.zeros((6, 4, 2), dtype=np.float32),
        np.zeros((6, 2, 4)).transpose(0, 2, 1),    # right shape, not C-contiguous
        np.zeros((6, 4, 2)).tolist(),
    )
    for out in unfit:
        with pytest.raises(DimensionMismatch):
            forward(params, xs, out=out)
    with pytest.raises(ValueError):
        forward(params, xs, states=False, out=np.zeros((6, 4, 2)))


def _gemm_projection(W, x, out=None):
    return np.matmul(W, x, out=out)


@pytest.mark.parametrize("d", [1, 3])
def test_input_projection_gives_the_gemm_bits(rng, monkeypatch, d):
    # At d = 1 the input projection is a broadcast product; states, logits
    # and every direction must carry the bits of the K = 1 GEMM it replaces.
    # Pixel-like inputs: many exact zeros, so signed zeros would show.
    shape = (2 * _BLOCK + 3, d, 5)
    xs = np.where(rng.random(shape) < 0.4, 0.0, rng.random(shape))
    y = rng.integers(0, 3, size=5)
    hyper = targetprop.TpHyper(gamma_h=0.05)

    def outputs():
        biases = np.random.default_rng(1)
        out = []
        for act in sorted(ACTIVATIONS):
            params = init_params(6, d, 3, act, seed=4)
            params.b_h[:] = biases.standard_normal(6) * 0.1
            cache = forward(params, xs)
            out += [cache.hs, cache.logits, forward(params, xs, states=False).logits]
            dirs = [bptt(params, cache, y),
                    targetprop.tp_direction(params, cache, y, hyper, debug_true_jacobian=True)]
            dirs += [targetprop.tp_direction(params, cache, y, targetprop.TpHyper(variant=v))
                     for v in targetprop.VARIANTS]
            out += [g for dr in dirs for g in dr.values()]
        gp = gru.init_gru_params(6, d, 3, seed=4)
        gp.b_in[:] = biases.standard_normal(6) * 0.1
        cache = gru.gru_forward(gp, xs)
        out += [cache.hs, cache.logits, gru.gru_forward(gp, xs, states=False).logits]
        for dr in (gru.gru_bptt(gp, cache, y), gru.gru_tp_backward(gp, cache, y, hyper),
                   gru.gru_tp_backward(gp, cache, y, hyper, debug_true_jacobian=True)):
            out += list(dr.values())
        return out

    got = outputs()
    monkeypatch.setattr(rnn, "_project", _gemm_projection)
    want = outputs()
    assert len(got) == len(want)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def test_loss_uniform_logits_is_log_k(rng):
    params = init_params(8, 2, 4, seed=0)
    for t in params.tensors().values():
        t[...] = 0.0
    cache = forward(params, rng.standard_normal((3, 2, 6)))
    y = rng.integers(0, 4, size=6)
    npt.assert_allclose(loss(y, cache), np.log(4.0), atol=1e-12)


def test_mse_loss_zero_at_fit():
    params = tiny_identity_params()
    xs = np.ones((2, 1, 3))
    cache = forward(params, xs)
    y = np.full(3, 2.0)
    npt.assert_allclose(loss(y, cache), 0.0, atol=0)


def test_ce_loss_matches_naive_recount(rng):
    params = init_params(5, 3, 4, seed=2)
    cache = forward(params, rng.standard_normal((6, 3, 7)))
    y = rng.integers(0, 4, size=7)
    # independent scalar recount, one sample at a time
    total = 0.0
    for b in range(7):
        z = cache.logits[:, b]
        probs = np.exp(z - z.max())
        probs /= probs.sum()
        total += -np.log(probs[y[b]])
    npt.assert_allclose(loss(y, cache), total / 7, rtol=1e-12)


def test_mse_loss_matches_naive_recount(rng):
    params = init_params(5, 3, 2, activation="tanh", output_kind=MSE, seed=2)
    cache = forward(params, rng.standard_normal((4, 3, 6)))
    y = rng.standard_normal((2, 6))
    total = sum(
        (cache.y_hat[k, b] - y[k, b]) ** 2 for k in range(2) for b in range(6)
    )
    npt.assert_allclose(loss(y, cache), total / (2 * 6), rtol=1e-12)


def test_loss_label_mismatch():
    params = init_params(4, 2, 3, seed=0)
    cache = forward(params, np.zeros((2, 2, 5)))
    with pytest.raises(LabelMismatch):
        loss(np.array([0.5, 1.0, 0.1, 0.2, 0.9]), cache)  # floats for CE labels
    with pytest.raises(LabelMismatch):
        loss(np.array([0, 3, 1, 2, 0]), cache)  # class id out of range


def loss_grad_state(params, y, cache):
    """dloss/dh_tau, (p, B)."""
    return params.W_hy.T @ output_delta(y, cache)


def test_loss_grad_state_zero_at_mse_fit():
    params = tiny_identity_params()
    cache = forward(params, np.ones((2, 1, 3)))
    g = loss_grad_state(params, np.full(3, 2.0), cache)
    npt.assert_allclose(g, np.zeros((1, 3)), atol=0)


def test_loss_grad_state_saturated_softmax_near_zero():
    params = init_params(3, 2, 2, seed=0)
    params.W_hy[...] = 0.0
    params.b_y[...] = [40.0, -40.0]  # all mass on class 0
    cache = forward(params, np.zeros((1, 2, 4)))
    g = loss_grad_state(params, np.zeros(4, dtype=np.int64), cache)
    assert np.max(np.abs(g)) < 1e-12


def test_loss_grad_state_finite_difference(rng):
    params = init_params(5, 3, 4, seed=7)
    xs = rng.standard_normal((3, 3, 2))
    cache = forward(params, xs)
    y = rng.integers(0, 4, size=2)
    g = loss_grad_state(params, y, cache)
    step = 1e-5
    for i in range(5):
        for b in range(2):
            h_tau = cache.hs[-1].copy()
            h_tau[i, b] += step
            up = _loss_from_last_state(params, h_tau, y)
            h_tau[i, b] -= 2 * step
            down = _loss_from_last_state(params, h_tau, y)
            fd = (up - down) / (2 * step)
            npt.assert_allclose(g[i, b], fd, rtol=1e-5, atol=1e-10)


def _loss_from_last_state(params, h_tau, y):
    logits = params.W_hy @ h_tau + params.b_y[:, None]
    z = logits - logits.max(axis=0, keepdims=True)
    log_probs = z - np.log(np.exp(z).sum(axis=0, keepdims=True))
    return -log_probs[y, np.arange(h_tau.shape[1])].mean()


def test_bptt_one_step_linear_model_closed_form(rng):
    # tau=1, identity activation: y_hat = W_hy(W_xh x + b_h) + b_y, plain least squares
    params = init_params(3, 2, 2, activation="identity", output_kind=MSE, seed=3)
    xs = rng.standard_normal((1, 2, 4))
    y = rng.standard_normal((2, 4))
    cache = forward(params, xs)
    d = bptt(params, cache, y)
    h1 = params.W_xh @ xs[0] + params.b_h[:, None]
    delta = 2.0 * (cache.y_hat - y) / (2 * 4)  # d loss / d logits
    npt.assert_allclose(d["W_hy"], delta @ h1.T, atol=1e-12)
    npt.assert_allclose(d["b_y"], delta.sum(axis=1), atol=1e-12)
    g_h = params.W_hy.T @ delta
    npt.assert_allclose(d["W_xh"], g_h @ xs[0].T, atol=1e-12)
    npt.assert_allclose(d["b_h"], g_h.sum(axis=1), atol=1e-12)
    npt.assert_allclose(d["W_hh"], 0.0, atol=1e-12)  # h_0 = 0


def test_bptt_zero_output_gradient_at_minimum():
    params = init_params(4, 2, 1, activation="tanh", output_kind=MSE, seed=0)
    params.W_hy[...] = 0.0
    params.b_y[...] = 0.0
    cache = forward(params, np.random.default_rng(1).standard_normal((3, 2, 5)))
    d = bptt(params, cache, np.zeros(5))
    npt.assert_allclose(d["W_hy"], 0.0, atol=0)
    npt.assert_allclose(d["b_y"], 0.0, atol=0)


def test_bptt_matches_finite_differences(rng):
    from tprop.diagnostics import finite_diff_check

    params = init_params(5, 3, 4, activation="tanh", seed=11)
    xs = rng.standard_normal((10, 3, 3))
    y = rng.integers(0, 4, size=3)

    def loss_fn():
        return loss(y, forward(params, xs))

    grads = bptt(params, forward(params, xs), y)
    report = finite_diff_check(loss_fn, params.tensors(), grads, step=1e-5)
    assert report.max_rel_err <= 1e-4


def test_bptt_cache_mismatch():
    params = init_params(4, 2, 3, seed=0)
    other = init_params(5, 2, 3, seed=0)
    y = np.zeros(3, dtype=np.int64)
    cache = forward(other, np.zeros((2, 2, 3)))
    with pytest.raises(CacheMismatch):
        bptt(params, cache, y)
    # a rollout without per-step states serves predictions, not a backward pass
    lean = forward(params, np.zeros((2, 2, 3)), states=False)
    with pytest.raises(CacheMismatch, match="states=False"):
        bptt(params, lean, y)


def test_batch_linearity_of_gradients(rng):
    params = init_params(4, 3, 2, seed=9)
    xs = rng.standard_normal((5, 3, 6))
    y = rng.integers(0, 2, size=6)
    full = bptt(params, forward(params, xs), y)
    per_sample = []
    for b in range(6):
        cache_b = forward(params, xs[:, :, b : b + 1])
        per_sample.append(bptt(params, cache_b, y[b : b + 1]))
    for name in full:
        mean = np.mean([d[name] for d in per_sample], axis=0)
        npt.assert_allclose(full[name], mean, atol=1e-10)


def test_vanishing_state_jacobian_decays_geometrically():
    # identity activation: d h_tau / d h_t = W_hh^(tau-t), spectral norm < 1 decays
    p = 6
    W = 0.5 * np.linalg.qr(np.random.default_rng(4).standard_normal((p, p)))[0]
    norms = [np.linalg.norm(np.linalg.matrix_power(W, k), 2) for k in range(1, 6)]
    for k in range(1, 5):
        npt.assert_allclose(norms[k], 0.5 * norms[k - 1], rtol=1e-10)
    assert norms[-1] < 0.04


def test_softmax_columns_sum_to_one(rng):
    z = 30 * rng.standard_normal((5, 8))
    s = softmax(z)
    npt.assert_allclose(s.sum(axis=0), np.ones(8), atol=1e-12)
    assert np.all(s > 0)


def test_output_delta_rows_sum_to_zero_for_ce(rng):
    params = init_params(4, 2, 3, seed=0)
    cache = forward(params, rng.standard_normal((3, 2, 5)))
    delta = output_delta(rng.integers(0, 3, size=5), cache)
    npt.assert_allclose(delta.sum(axis=0), np.zeros(5), atol=1e-12)


@given(
    seed=st.integers(min_value=0, max_value=9999),
    activation=st.sampled_from(sorted(ACTIVATIONS)),
    output_kind=st.sampled_from((SOFTMAX_CE, MSE)),
)
@settings(max_examples=50)
def test_forward_deterministic_in_params_and_inputs(seed, activation, output_kind):
    rng = np.random.default_rng(seed)
    params = init_params(3, 2, 2, activation, output_kind, seed=seed)
    xs = rng.standard_normal((4, 2, 2))
    a = forward(params, xs)
    b = forward(params, xs)
    assert a.y_hat.tobytes() == b.y_hat.tobytes()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a.hs, b.hs))
    # keeping no per-step states changes no bit of the prediction
    lean = forward(params, xs, states=False)
    assert lean.hs is None
    assert lean.logits.tobytes() == a.logits.tobytes()
    assert lean.y_hat.tobytes() == a.y_hat.tobytes()


def test_both_cells_reject_an_unknown_output_kind():
    for init in (lambda: init_params(3, 2, 2, output_kind="hinge"),
                 lambda: gru.init_gru_params(3, 2, 2, output_kind="hinge")):
        with pytest.raises(ValueError, match="unknown output kind 'hinge'"):
            init()


def test_mse_targets_as_a_column_are_refused():
    # (B, 1) targets would broadcast against the (1, B) predictions into a
    # (B, B) error and give a finite, wrong loss
    params = init_params(3, 2, 1, output_kind=MSE)
    cache = forward(params, np.ones((4, 2, 5)))
    for fn in (loss, output_delta):
        with pytest.raises(LabelMismatch, match=r"need \(1, 5\) regression targets"):
            fn(np.zeros((5, 1)), cache)


def test_backward_refuses_a_cache_from_another_output_head():
    params = init_params(3, 2, 3)
    cache = forward(params, np.ones((4, 2, 5)))
    y = np.zeros(5, dtype=np.int64)
    smaller = dataclasses.replace(params, W_hy=params.W_hy[:2], b_y=params.b_y[:2])
    regression = dataclasses.replace(params, output_kind=MSE)
    hy = targetprop.TpHyper()
    for changed, match in ((smaller, "output head size changed"),
                           (regression, "output kind changed")):
        for backward in (bptt, lambda *a: targetprop.tp_direction(*a, hy)):
            with pytest.raises(CacheMismatch, match=match):
                backward(changed, cache, y)
