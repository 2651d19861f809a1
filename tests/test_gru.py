import numpy as np
import numpy.testing as npt
import pytest

from tprop.gru import (
    RECURRENT_TENSORS,
    GruParams,
    gru_bptt,
    gru_forward,
    gru_tp_backward,
    init_gru_params,
)
from tprop.activations import ACTIVATIONS
from tprop.linalg import DimensionMismatch, factorization_count
from tprop.rnn import _BLOCK, MSE, SOFTMAX_CE, CacheMismatch, loss, output_delta
from tprop.targetprop import TpHyper


def hyper(**kw):
    base = dict(gamma_h=1e-2, gamma_theta=1e-1, r=1.0, epsilon=1e-3, variant="linearized")
    base.update(kw)
    return TpHyper(**base)


def zeroed(params):
    for t in params.tensors().values():
        t[...] = 0.0
    return params


def _sigmoid(u):
    return 1.0 / (1.0 + np.exp(-u))


def rollout(params, xs):
    """The cell rolled one step at a time from h_0 = 0, each expression
    written out in the forward's order of operations: the stacks of
    h_0 .. h_tau and of every step's m_t, z_t, a_t and n_t."""
    h = np.zeros((params.p, xs.shape[2]))
    hs, ms, zs, avs, ns = [h], [], [], [], []
    for x in xs:
        m = _sigmoid(params.W_im @ x + params.W_hm @ h + params.b_m[:, None])
        z = _sigmoid(params.W_iz @ x + params.W_hz @ h + params.b_z[:, None])
        av = params.W_hn @ h + params.b_hn[:, None]
        n = np.tanh(params.W_in @ x + params.b_in[:, None] + m * av)
        h = (1.0 - z) * h + z * n
        for stack, v in ((hs, h), (ms, m), (zs, z), (avs, av), (ns, n)):
            stack.append(v)
    return tuple(np.array(stack) for stack in (hs, ms, zs, avs, ns))


def block_edges(tau):
    """t = 0 and t = tau - kC, C = _BLOCK: where the GRU cache keeps h_t."""
    return sorted({0, *range(tau, 0, -_BLOCK)})


def test_forward_all_zero_params(rng):
    params = zeroed(init_gru_params(4, 2, 3, seed=0))
    xs = rng.standard_normal((5, 2, 2))
    cache = gru_forward(params, xs)
    hs, ms, zs, _, ns = rollout(params, xs)
    npt.assert_allclose(ms, 0.5, atol=0)
    npt.assert_allclose(zs, 0.5, atol=0)
    npt.assert_allclose(ns, 0.0, atol=0)
    npt.assert_allclose(hs, 0.0, atol=0)
    npt.assert_allclose(cache.hs, 0.0, atol=0)


@pytest.mark.parametrize("output_kind", [SOFTMAX_CE, MSE])
def test_cache_keeps_one_state_per_block_edge(rng, output_kind):
    params = init_gru_params(6, 3, 2, output_kind=output_kind, seed=14)
    C = _BLOCK
    for tau in (1, C - 1, C, C + 1, 2 * C + 3):
        xs = rng.standard_normal((tau, 3, 5))
        cache = gru_forward(params, xs)
        hs = rollout(params, xs)[0]
        edges = block_edges(tau)
        assert len(edges) == -(-tau // C) + 1 and edges[-1] == tau
        assert cache.hs.shape == (len(edges), 6, 5)
        assert cache.hs.tobytes() == hs[edges].tobytes(), tau
        logits = params.W_hy @ hs[-1] + params.b_y[:, None]
        assert cache.logits.tobytes() == logits.tobytes(), tau


def test_forward_dimension_mismatch():
    params = init_gru_params(4, 3, 2, seed=0)
    with pytest.raises(DimensionMismatch):
        gru_forward(params, np.zeros((5, 7, 2)))
    with pytest.raises(DimensionMismatch):  # an empty batch has no mean loss
        gru_forward(params, np.zeros((5, 3, 0)))


@pytest.mark.parametrize("output_kind", [SOFTMAX_CE, MSE])
def test_forward_writes_edge_states_into_out(rng, output_kind):
    params = init_gru_params(6, 3, 2, output_kind=output_kind, seed=15)
    C = _BLOCK
    for tau in (1, C - 1, C, C + 1, 2 * C + 3):
        xs = rng.standard_normal((tau, 3, 5))
        fresh = gru_forward(params, xs)
        buf = np.full((len(block_edges(tau)), 6, 5), np.nan)
        cache = gru_forward(params, xs, out=buf)
        assert cache.hs is buf, tau
        assert buf.tobytes() == fresh.hs.tobytes(), tau
        assert cache.logits.tobytes() == fresh.logits.tobytes(), tau
        assert cache.y_hat.tobytes() == fresh.y_hat.tobytes(), tau


def test_forward_rejects_unfit_out():
    params = init_gru_params(4, 3, 2, seed=0)
    xs = np.zeros((2 * _BLOCK + 3, 3, 2))
    n = len(block_edges(len(xs)))
    unfit = (
        np.zeros((len(xs) + 1, 4, 2)),              # every state, not one per edge
        np.zeros((n, 4, 2), dtype=np.float32),
        np.zeros((n, 2, 4)).transpose(0, 2, 1),     # right shape, not C-contiguous
    )
    for out in unfit:
        with pytest.raises(DimensionMismatch):
            gru_forward(params, xs, out=out)
    with pytest.raises(ValueError):
        gru_forward(params, xs, states=False, out=np.zeros((n, 4, 2)))


def test_forward_closed_update_gate_freezes_state(rng):
    params = init_gru_params(4, 2, 3, seed=1)
    params.W_iz[...] = 0.0
    params.W_hz[...] = 0.0
    params.b_z[...] = -40.0  # z ~ 4e-18, the state barely moves
    xs = rng.standard_normal((6, 2, 3))
    hs = rollout(params, xs)[0]
    for t in range(6):
        npt.assert_allclose(hs[t + 1], hs[t], atol=1e-15)
    npt.assert_allclose(gru_forward(params, xs).hs, 0.0, atol=1e-15)


def test_forward_state_recurrence_invariant(rng):
    params = init_gru_params(5, 3, 2, seed=2)
    xs = rng.standard_normal((4, 3, 3))
    hs, ms, zs, _, ns = rollout(params, xs)
    npt.assert_allclose(hs[1:], (1 - zs) * hs[:-1] + zs * ns, atol=0)
    assert np.all((ms > 0) & (ms < 1))
    assert np.all((zs > 0) & (zs < 1))
    assert np.all((ns > -1) & (ns < 1))
    assert gru_forward(params, xs).hs[-1].tobytes() == hs[-1].tobytes()


def test_forward_at_pixel_scale(rng):
    params = init_gru_params(100, 1, 10, seed=0)
    cache = gru_forward(params, rng.standard_normal((784, 1, 2)))
    assert cache.tau == 784
    assert cache.hs[-1].shape == (100, 2)


@pytest.mark.parametrize("output_kind", [SOFTMAX_CE, MSE])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forward_without_states_gives_the_same_prediction(output_kind, seed):
    rng = np.random.default_rng(seed)
    params = init_gru_params(6, 3, 2, output_kind=output_kind, seed=seed)
    xs = rng.standard_normal((40, 3, 5))
    full = gru_forward(params, xs)
    lean = gru_forward(params, xs, states=False)
    assert lean.hs is None
    assert lean.logits.tobytes() == full.logits.tobytes()
    assert lean.y_hat.tobytes() == full.y_hat.tobytes()


def test_bptt_matches_finite_differences(rng):
    from tprop.diagnostics import finite_diff_check

    params = init_gru_params(4, 2, 3, seed=3)
    xs = rng.standard_normal((3, 2, 3))
    y = rng.integers(0, 3, size=3)

    def loss_fn():
        return loss(y, gru_forward(params, xs))

    grads = gru_bptt(params, gru_forward(params, xs), y)
    report = finite_diff_check(loss_fn, params.tensors(), grads, step=1e-5)
    assert report.max_rel_err <= 1e-4


def test_bptt_zero_head_gradient_at_minimum(rng):
    params = init_gru_params(4, 2, 1, output_kind=MSE, seed=4)
    params.W_hy[...] = 0.0
    params.b_y[...] = 0.0
    cache = gru_forward(params, rng.standard_normal((3, 2, 5)))
    d = gru_bptt(params, cache, np.zeros(5))
    npt.assert_allclose(d["W_hy"], 0.0, atol=0)
    npt.assert_allclose(d["b_y"], 0.0, atol=0)


def test_bptt_saturated_update_gate_drops_carry_term(rng):
    # z ~ 1 means h_t ~ n_t: the state gradient flowing through (1 - z) vanishes,
    # checked by comparing against a model where the carry path is the only one
    params = init_gru_params(3, 2, 2, seed=5)
    params.W_iz[...] = 0.0
    params.W_hz[...] = 0.0
    params.b_z[...] = 40.0
    xs = rng.standard_normal((2, 2, 2))
    cache = gru_forward(params, xs)
    npt.assert_allclose(rollout(params, xs)[2], 1.0, atol=1e-15)
    d = gru_bptt(params, cache, rng.integers(0, 2, size=2))
    assert all(np.all(np.isfinite(v)) for v in d.values())
    # the z-gate parameter gradients die with z(1-z)
    npt.assert_allclose(d["W_hz"], 0.0, atol=1e-12)
    npt.assert_allclose(d["b_z"], 0.0, atol=1e-12)


def test_bptt_cache_mismatch():
    params = init_gru_params(4, 2, 3, seed=0)
    other = init_gru_params(5, 2, 3, seed=0)
    y = np.zeros(3, dtype=np.int64)
    cache = gru_forward(other, np.zeros((2, 2, 3)))
    with pytest.raises(CacheMismatch):
        gru_bptt(params, cache, y)
    per_step = gru_forward(params, np.zeros((2, 2, 3)))
    per_step.hs = np.zeros((3, 4, 3))  # h_0 .. h_2, where the GRU keeps h_0 and h_2
    with pytest.raises(CacheMismatch):
        gru_bptt(params, per_step, y)
    lean = gru_forward(params, np.zeros((2, 2, 3)), states=False)
    with pytest.raises(CacheMismatch, match="states=False"):
        gru_bptt(params, lean, y)
    before = factorization_count()
    with pytest.raises(CacheMismatch, match="states=False"):
        gru_tp_backward(params, lean, y, hyper())
    assert factorization_count() == before


@pytest.mark.parametrize("debug", [False, True])
@pytest.mark.parametrize("variant", ["finite_difference", "exact_inverse"])
def test_tp_backward_rejects_rnn_only_variants(variant, debug):
    # the GRU has only the linearized rule; another variant must not quietly
    # return the linearized direction
    params = init_gru_params(4, 2, 3, seed=0)
    cache = gru_forward(params, np.zeros((5, 2, 3)))
    y = np.zeros(3, dtype=np.int64)
    before = factorization_count()
    with pytest.raises(ValueError, match=variant):
        gru_tp_backward(params, cache, y, hyper(variant=variant), debug_true_jacobian=debug)
    assert factorization_count() == before


def _tp_per_step_reference(params, cache, y, hy):
    """The GRU TP sweep written out one step at a time: states and gates
    from the per-step rollout, logit derivatives at explicitly clipped
    gates, and the ridge inverses of W_hm, W_hz and W_hn from a dense solve."""
    eye = np.eye(params.p)
    V_m, V_z, V_n = (np.linalg.solve(W.T @ W + hy.r * eye, W.T)
                     for W in (params.W_hm, params.W_hz, params.W_hn))
    lo, hi = hy.epsilon, 1.0 - hy.epsilon
    d = {k: np.zeros_like(params.tensors()[k]) for k in RECURRENT_TENSORS}
    dh = -hy.gamma_h * (params.W_hy.T @ output_delta(y, cache))
    hs, ms, zs, avs, ns = rollout(params, cache.xs)
    for t in range(cache.tau - 1, -1, -1):
        x, h, m, z, av, n = cache.xs[t], hs[t], ms[t], zs[t], avs[t], ns[t]
        dzeta = dh * (n - h) * z * (1.0 - z)
        dnu = dh * z * (1.0 - n * n)
        dmu = dnu * av * m * (1.0 - m)
        da = dnu * m
        for name, delta, inp in (("W_iz", dzeta, x), ("W_hz", dzeta, h), ("W_im", dmu, x),
                                 ("W_hm", dmu, h), ("W_in", dnu, x), ("W_hn", da, h)):
            d[name] += delta @ inp.T
        for name, delta in (("b_z", dzeta), ("b_m", dmu), ("b_in", dnu), ("b_hn", da)):
            d[name] += delta.sum(axis=1)
        if t > 0:
            zc, mc = np.clip(z, lo, hi), np.clip(m, lo, hi)
            dh = ((1.0 - z) * dh
                  + V_z @ ((n - h) * dh / (zc * (1.0 - zc)))
                  + V_m @ (dnu * av / (mc * (1.0 - mc)))
                  + V_n @ (m * dnu))
    return d


@pytest.mark.parametrize("saturation", [0.0, 40.0])
def test_tp_backward_matches_per_step_reference(rng, saturation):
    params = init_gru_params(6, 3, 3, seed=13)
    params.b_z[:3] = saturation   # some update gates pinned at 1 ...
    params.b_m[3:] = -saturation  # ... and some reset gates at 0
    hy = hyper(gamma_h=0.05, r=0.5, epsilon=1e-2)
    C = _BLOCK  # the lengths put the sweep's block edges at every position
    for tau in (1, C - 1, C, C + 1, 2 * C + 3):
        cache = gru_forward(params, rng.standard_normal((tau, 3, 4)))
        y = rng.integers(0, 3, size=4)
        gates = np.concatenate(rollout(params, cache.xs)[1:3])
        clipped = np.any((gates < hy.epsilon) | (gates > 1.0 - hy.epsilon))
        assert clipped == (saturation > 0)
        got = gru_tp_backward(params, cache, y, hy)
        want = _tp_per_step_reference(params, cache, y, hy)
        for name in RECURRENT_TENSORS:
            npt.assert_allclose(got[name], want[name], rtol=1e-12,
                                atol=1e-15 * np.abs(want[name]).max(), err_msg=(tau, name))


def test_tp_backward_three_factorizations_per_call(rng):
    params = init_gru_params(5, 2, 3, seed=8)
    for tau, B in ((4, 2), (30, 6)):
        xs = rng.standard_normal((tau, 2, B))
        y = rng.integers(0, 3, size=B)
        cache = gru_forward(params, xs)
        before = factorization_count()
        gru_tp_backward(params, cache, y, hyper())
        assert factorization_count() - before == 3


def test_tp_backward_debug_mode_reproduces_bptt(rng):
    for seed in range(3):
        gen = np.random.default_rng(seed)
        params = init_gru_params(5, 3, 3, seed=seed)
        xs = gen.standard_normal((6, 3, 4))
        y = gen.integers(0, 3, size=4)
        cache = gru_forward(params, xs)
        gh = 0.01
        d = gru_tp_backward(params, cache, y, hyper(gamma_h=gh), debug_true_jacobian=True)
        g = gru_bptt(params, cache, y)
        for name in RECURRENT_TENSORS:
            npt.assert_allclose(d[name], -gh * g[name], rtol=1e-10, atol=1e-15)
        npt.assert_allclose(d["W_hy"], -g["W_hy"], atol=1e-15)
        npt.assert_allclose(d["b_y"], -g["b_y"], atol=1e-15)


def test_tp_backward_zero_loss_gradient_gives_zero_direction(rng):
    params = init_gru_params(4, 2, 1, output_kind=MSE, seed=9)
    params.W_hy[...] = 0.0
    params.b_y[...] = 0.0
    cache = gru_forward(params, rng.standard_normal((3, 2, 4)))
    # y equals y_hat = 0, so the head delta and every displacement vanish
    d = gru_tp_backward(params, cache, np.zeros(4), hyper())
    for name, tensor in d.items():
        npt.assert_allclose(tensor, 0.0, atol=0, err_msg=name)


def test_tp_backward_linear_in_gamma_h(rng):
    params = init_gru_params(5, 2, 3, seed=10)
    xs = rng.standard_normal((5, 2, 3))
    y = rng.integers(0, 3, size=3)
    cache = gru_forward(params, xs)
    g = 0.0125
    d1 = gru_tp_backward(params, cache, y, hyper(gamma_h=g))
    d2 = gru_tp_backward(params, cache, y, hyper(gamma_h=2 * g))
    for name in RECURRENT_TENSORS:
        npt.assert_allclose(d2[name], 2.0 * d1[name], rtol=1e-12, atol=1e-18)
    npt.assert_allclose(d2["W_hy"], d1["W_hy"], atol=0)


def test_tp_backward_finite_under_saturated_gates(rng):
    # saturated gates hit the [eps, 1-eps] clip; the inverse derivative stays
    # finite and at least 4 = 1/(0.5 * 0.5)
    params = init_gru_params(4, 2, 2, seed=11)
    params.b_z[...] = 40.0
    params.b_m[...] = -40.0
    xs = rng.standard_normal((3, 2, 2))
    cache = gru_forward(params, xs)
    d = gru_tp_backward(params, cache, rng.integers(0, 2, size=2), hyper())
    for name, tensor in d.items():
        assert np.all(np.isfinite(tensor)), name
    z = rollout(params, xs)[2][0]
    inv_d = ACTIVATIONS["sigmoid"].inv_deriv(z)
    assert np.all(inv_d >= 4.0) and np.all(np.isfinite(inv_d))


def test_output_head_directions_match_plain_gradient(rng):
    params = init_gru_params(5, 2, 3, seed=12)
    xs = rng.standard_normal((4, 2, 3))
    y = rng.integers(0, 3, size=3)
    cache = gru_forward(params, xs)
    d = gru_tp_backward(params, cache, y, hyper())
    g = gru_bptt(params, cache, y)
    npt.assert_allclose(d["W_hy"], -g["W_hy"], atol=1e-15)
    npt.assert_allclose(d["b_y"], -g["b_y"], atol=1e-15)
