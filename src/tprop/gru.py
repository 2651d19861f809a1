"""Gated recurrent unit with a target-propagation backward pass.

The cell splits into three elementary maps, each of which is linear in
h_{t-1} up to a pointwise nonlinearity and therefore easy to invert with a
ridge pseudo-inverse of its own recurrent matrix:

    m_t = sigmoid(W_im x_t + W_hm h_{t-1} + b_m)        (reset gate)
    z_t = sigmoid(W_iz x_t + W_hz h_{t-1} + b_z)        (update gate)
    a_t = W_hn h_{t-1} + b_hn                           (candidate recurrence)
    n_t = tanh(W_in x_t + b_in + m_t * a_t)
    h_t = (1 - z_t) * h_{t-1} + z_t * n_t

The backward displacement recursion substitutes the three inverses for the
corresponding pieces of the true Jacobian, so one backward pass costs exactly
three matrix factorizations (for W_hm, W_hz, W_hn), independent of sequence
length. Parameter directions use the true parameter Jacobians, and the output
head keeps its plain gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rnn
from .activations import ACTIVATIONS, sigmoid
from .rnn import Direction, SOFTMAX_CE, OUTPUT_KINDS
from .targetprop import TpHyper


@dataclass
class GruParams:
    W_im: np.ndarray  # (p, d)
    W_hm: np.ndarray  # (p, p)
    b_m: np.ndarray   # (p,)
    W_iz: np.ndarray  # (p, d)
    W_hz: np.ndarray  # (p, p)
    b_z: np.ndarray   # (p,)
    W_in: np.ndarray  # (p, d)
    b_in: np.ndarray  # (p,)
    W_hn: np.ndarray  # (p, p)
    b_hn: np.ndarray  # (p,)
    W_hy: np.ndarray  # (K, p)
    b_y: np.ndarray   # (K,)
    output_kind: str = SOFTMAX_CE

    @property
    def p(self) -> int:
        return self.W_hm.shape[0]

    @property
    def d(self) -> int:
        return self.W_im.shape[1]

    @property
    def n_out(self) -> int:
        return self.W_hy.shape[0]

    def tensors(self) -> Direction:
        return {
            "W_im": self.W_im, "W_hm": self.W_hm, "b_m": self.b_m,
            "W_iz": self.W_iz, "W_hz": self.W_hz, "b_z": self.b_z,
            "W_in": self.W_in, "b_in": self.b_in,
            "W_hn": self.W_hn, "b_hn": self.b_hn,
            "W_hy": self.W_hy, "b_y": self.b_y,
        }


RECURRENT_TENSORS = (
    "W_im", "W_hm", "b_m", "W_iz", "W_hz", "b_z", "W_in", "b_in", "W_hn", "b_hn",
)


@dataclass
class GruCache:
    """One rollout; the per-step stacks are None when it kept no states."""

    xs: np.ndarray              # (tau, d, B)
    hs: np.ndarray | None       # (tau + 1, p, B)
    ms: np.ndarray | None       # (tau, p, B) reset gates
    zs: np.ndarray | None       # (tau, p, B) update gates
    ns: np.ndarray | None       # (tau, p, B) candidates
    avs: np.ndarray | None      # (tau, p, B) candidate recurrences a_t
    logits: np.ndarray  # (K, B)
    y_hat: np.ndarray   # (K, B)
    output_kind: str

    @property
    def tau(self) -> int:
        return self.xs.shape[0]


def init_gru_params(
    p: int, d: int, n_out: int, output_kind: str = SOFTMAX_CE, seed: int = 0
) -> GruParams:
    """Orthogonal weights, zero biases."""
    if output_kind not in OUTPUT_KINDS:
        raise ValueError(f"unknown output kind {output_kind!r}")
    rng = np.random.default_rng(seed)
    return GruParams(
        W_im=linalg.orthogonal(rng, p, d),
        W_hm=linalg.orthogonal(rng, p, p),
        b_m=np.zeros(p),
        W_iz=linalg.orthogonal(rng, p, d),
        W_hz=linalg.orthogonal(rng, p, p),
        b_z=np.zeros(p),
        W_in=linalg.orthogonal(rng, p, d),
        b_in=np.zeros(p),
        W_hn=linalg.orthogonal(rng, p, p),
        b_hn=np.zeros(p),
        W_hy=linalg.orthogonal(rng, n_out, p),
        b_y=np.zeros(n_out),
        output_kind=output_kind,
    )


def gru_forward(params: GruParams, x_seq: np.ndarray, *, states: bool = True) -> GruCache:
    """Roll the cell over x_seq (tau, d, B) from h_0 = 0; ``states`` as in
    :func:`tprop.rnn.forward`."""
    x_seq = rnn._check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    p = params.p
    hs = np.zeros((tau + 1, p, B)) if states else None
    ms, zs, ns, avs = (
        [np.empty((tau, p, B)) for _ in range(4)] if states else [None] * 4
    )
    h = np.zeros((p, B))
    for t in range(tau):
        x = x_seq[t]
        m = sigmoid(params.W_im @ x + params.W_hm @ h + params.b_m[:, None])
        z = sigmoid(params.W_iz @ x + params.W_hz @ h + params.b_z[:, None])
        av = params.W_hn @ h + params.b_hn[:, None]
        n = np.tanh(params.W_in @ x + params.b_in[:, None] + m * av)
        h = (1.0 - z) * h + z * n
        if states:
            ms[t], zs[t], ns[t], avs[t], hs[t + 1] = m, z, n, av, h
    logits, y_hat = rnn._head(params, h)
    return GruCache(
        xs=x_seq, hs=hs, ms=ms, zs=zs, ns=ns, avs=avs,
        logits=logits, y_hat=y_hat, output_kind=params.output_kind,
    )


def _zero_direction(params: GruParams) -> Direction:
    return {k: np.zeros_like(v) for k, v in params.tensors().items()}


def _accumulate_step(d: Direction, cache, t, dh):
    """Chain dh (a sensitivity or displacement at h_t) into the step-t
    parameter accumulators via the true parameter Jacobians. Returns the
    per-piece preactivation deltas for reuse by the state recursions."""
    z, m, n, av = cache.zs[t], cache.ms[t], cache.ns[t], cache.avs[t]
    hprev, x = cache.hs[t], cache.xs[t]
    tanhp = 1.0 - n * n
    dzeta = dh * (n - hprev) * z * (1.0 - z)
    dnu = dh * z * tanhp
    da = dnu * m
    dmu = dnu * av * m * (1.0 - m)
    d["W_iz"] += dzeta @ x.T
    d["W_hz"] += dzeta @ hprev.T
    d["b_z"] += dzeta.sum(axis=1)
    d["W_im"] += dmu @ x.T
    d["W_hm"] += dmu @ hprev.T
    d["b_m"] += dmu.sum(axis=1)
    d["W_in"] += dnu @ x.T
    d["b_in"] += dnu.sum(axis=1)
    d["W_hn"] += da @ hprev.T
    d["b_hn"] += da.sum(axis=1)
    return dzeta, dmu, da


def _sweep(params: GruParams, cache: GruCache, signal: np.ndarray, propagate) -> Direction:
    """One backward pass over the time axis, for BPTT and the TP rule.

    ``signal`` is the (p, B) sensitivity (or displacement) at h_tau;
    ``propagate(t, dh, dzeta, dmu, da)`` maps the one at h_{t+1} to the one
    at h_t, given the step's preactivation deltas. The output head is left
    at zero for the caller.
    """
    d = _zero_direction(params)
    dh = signal
    for t in range(cache.tau - 1, -1, -1):
        dzeta, dmu, da = _accumulate_step(d, cache, t, dh)
        if t > 0:
            dh = propagate(t, dh, dzeta, dmu, da)
    return d


def _transposed_jacobian(params: GruParams, cache: GruCache):
    """BPTT's propagator: the true transposed Jacobian of h_t in h_{t-1}."""
    return lambda t, g, dzeta, dmu, da: (
        (1.0 - cache.zs[t]) * g
        + params.W_hz.T @ dzeta
        + params.W_hm.T @ dmu
        + params.W_hn.T @ da
    )


def gru_bptt(params: GruParams, cache: GruCache, y) -> Direction:
    """Exact gradient of the batch-mean loss for every parameter tensor."""
    rnn._check_cache(params, cache)
    return rnn._backward(params, cache, y, _sweep, _transposed_jacobian(params, cache))


def _linearized_inverse(cache: GruCache, Vs, eps: float):
    """TP's propagator: each transposed-Jacobian piece replaced by the
    linearized regularized inverse of its gate map. The logit derivative of
    each gate is evaluated at the gate value projected into [eps, 1-eps]."""
    V_m, V_z, V_n = Vs
    logit_deriv = ACTIVATIONS["sigmoid"].inv_deriv

    def propagate(t, dh, dzeta, dmu, da):
        z, m, n, av = cache.zs[t], cache.ms[t], cache.ns[t], cache.avs[t]
        tanhp = 1.0 - n * n
        return (
            (1.0 - z) * dh
            + V_z @ (logit_deriv(z, eps) * (n - cache.hs[t]) * dh)
            + V_m @ (logit_deriv(m, eps) * av * tanhp * z * dh)
            + V_n @ (m * tanhp * z * dh)
        )

    return propagate


def gru_tp_backward(
    params: GruParams,
    cache: GruCache,
    y,
    hyper: TpHyper,
    debug_true_jacobian: bool = False,
) -> Direction:
    """Displacement backward pass through the three gate inverses.

    The state recursion uses the linearized inverses of the gate maps.
    Parameter directions chain the displacement through the true parameter
    Jacobians, and the output head gets its negated plain gradient. Exactly
    three factorizations per call.

    With ``debug_true_jacobian`` the state recursion uses the true Jacobian
    pieces instead, which makes the recurrent-tensor result equal
    -gamma_h times :func:`gru_bptt`.
    """
    rnn._check_cache(params, cache)
    Vs = [linalg.ridge_pinv(W, hyper.r) for W in (params.W_hm, params.W_hz, params.W_hn)]
    if debug_true_jacobian:
        propagate = _transposed_jacobian(params, cache)
    else:
        propagate = _linearized_inverse(cache, Vs, hyper.epsilon)
    return rnn._backward(params, cache, y, _sweep, propagate, hyper.gamma_h)
