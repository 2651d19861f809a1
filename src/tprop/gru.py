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

A rollout keeps only the states h_t, one (tau, p, B) stack. The backward
passes recompute m_t, z_t, a_t and n_t from them a block of steps at a time
with the forward's own expressions, so the directions carry the same bits as
if all had been stored, and no pass holds a whole-axis stack of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, rnn
from .activations import ACTIVATIONS, sigmoid
from .rnn import Direction, SOFTMAX_CE, OUTPUT_KINDS
from .targetprop import LINEARIZED, TpHyper


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
    """One rollout: the states, from which the backward passes recompute
    m_t, z_t, a_t and n_t (:func:`_gates`, :func:`_candidate`). hs is None
    when the rollout kept no states."""

    xs: np.ndarray              # (tau, d, B)
    hs: np.ndarray | None       # (tau + 1, p, B)
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


def _gates(params: GruParams, x, h):
    """The reset and update gates m_t, z_t; x and h are one step's (., B)
    matrices or stacks of consecutive steps."""
    m = sigmoid(params.W_im @ x + params.W_hm @ h + params.b_m[:, None])
    z = sigmoid(params.W_iz @ x + params.W_hz @ h + params.b_z[:, None])
    return m, z


def _candidate(params: GruParams, x, h, m):
    """a_t = W_hn h_{t-1} + b_hn and n_t = tanh(W_in x_t + b_in + m_t * a_t);
    x, h and m are one step's (., B) matrices or stacks of consecutive steps."""
    av = params.W_hn @ h + params.b_hn[:, None]
    return av, np.tanh(params.W_in @ x + params.b_in[:, None] + m * av)


def gru_forward(params: GruParams, x_seq: np.ndarray, *, states: bool = True) -> GruCache:
    """Roll the cell over x_seq (tau, d, B) from h_0 = 0; ``states`` as in
    :func:`tprop.rnn.forward`."""
    x_seq = rnn._check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    p = params.p
    hs = np.zeros((tau + 1, p, B)) if states else None
    h = np.zeros((p, B))
    for t in range(tau):
        x = x_seq[t]
        m, z = _gates(params, x, h)
        _, n = _candidate(params, x, h, m)
        h = (1.0 - z) * h + z * n
        if states:
            hs[t + 1] = h
    logits, y_hat = rnn._head(params, h)
    return GruCache(
        xs=x_seq, hs=hs,
        logits=logits, y_hat=y_hat, output_kind=params.output_kind,
    )


class _Step(NamedTuple):
    """Step t's inputs and pointwise factors, as the backward passes read them."""

    x: np.ndarray      # x_t
    h: np.ndarray      # h_{t-1}
    m: np.ndarray
    z: np.ndarray
    av: np.ndarray     # a_t, recomputed
    n: np.ndarray      # n_t, recomputed
    tanhp: np.ndarray  # 1 - n_t^2


def _accumulate_step(d: Direction, s: _Step, dh):
    """Chain dh (a sensitivity or displacement at h_t) into the step-t
    parameter accumulators via the true parameter Jacobians. Returns the
    per-piece preactivation deltas for reuse by the state recursions."""
    z, m, hprev, x = s.z, s.m, s.h, s.x
    dzeta = dh * (s.n - hprev) * z * (1.0 - z)
    dnu = dh * z * s.tanhp
    da = dnu * m
    dmu = dnu * s.av * m * (1.0 - m)
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
    ``propagate(s, dh, dzeta, dmu, da)`` maps the one at h_{t+1} to the one
    at h_t, given the step's :class:`_Step` and preactivation deltas. m_t,
    z_t, a_t and n_t are recomputed ``rnn._BLOCK`` steps at a time, so the
    rollout's states are the one (tau, p, B) stack held. The output head is
    left at zero for the caller.
    """
    d = {k: np.zeros_like(v) for k, v in params.tensors().items()}
    dh = signal
    for hi in range(cache.tau, 0, -rnn._BLOCK):
        lo = max(hi - rnn._BLOCK, 0)
        x, h = cache.xs[lo:hi], cache.hs[lo:hi]
        ms, zs = _gates(params, x, h)
        avs, ns = _candidate(params, x, h, ms)
        tanhps = 1.0 - ns * ns
        for t in range(hi - 1, lo - 1, -1):
            i = t - lo
            s = _Step(x[i], h[i], ms[i], zs[i], avs[i], ns[i], tanhps[i])
            dzeta, dmu, da = _accumulate_step(d, s, dh)
            if t > 0:
                dh = propagate(s, dh, dzeta, dmu, da)
    return d


def _transposed_jacobian(params: GruParams):
    """BPTT's propagator: the true transposed Jacobian of h_t in h_{t-1}."""
    return lambda s, g, dzeta, dmu, da: (
        (1.0 - s.z) * g
        + params.W_hz.T @ dzeta
        + params.W_hm.T @ dmu
        + params.W_hn.T @ da
    )


def gru_bptt(params: GruParams, cache: GruCache, y) -> Direction:
    """Exact gradient of the batch-mean loss for every parameter tensor."""
    rnn._check_cache(params, cache)
    return rnn._backward(params, cache, y, _sweep, _transposed_jacobian(params))


def _linearized_inverse(Vs, eps: float):
    """TP's propagator: each transposed-Jacobian piece replaced by the
    linearized regularized inverse of its gate map. The logit derivative of
    each gate is evaluated at the gate value projected into [eps, 1-eps]."""
    V_m, V_z, V_n = Vs
    logit_deriv = ACTIVATIONS["sigmoid"].inv_deriv

    def propagate(s, dh, dzeta, dmu, da):
        z, m, tanhp = s.z, s.m, s.tanhp
        return (
            (1.0 - z) * dh
            + V_z @ (logit_deriv(z, eps) * (s.n - s.h) * dh)
            + V_m @ (logit_deriv(m, eps) * s.av * tanhp * z * dh)
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

    The state recursion uses the linearized inverses of the gate maps, the
    only rule the GRU has: any other ``hyper.variant`` raises ValueError.
    Parameter directions chain the displacement through the true parameter
    Jacobians, and the output head gets its negated plain gradient. Exactly
    three factorizations per call.

    With ``debug_true_jacobian`` the state recursion uses the true Jacobian
    pieces instead, which makes the recurrent-tensor result equal
    -gamma_h times :func:`gru_bptt`.
    """
    if hyper.variant != LINEARIZED:
        raise ValueError(f"the GRU has only the {LINEARIZED!r} TP rule, not {hyper.variant!r}")
    rnn._check_cache(params, cache)
    Vs = [linalg.ridge_pinv(W, hyper.r) for W in (params.W_hm, params.W_hz, params.W_hn)]
    if debug_true_jacobian:
        propagate = _transposed_jacobian(params)
    else:
        propagate = _linearized_inverse(Vs, hyper.epsilon)
    return rnn._backward(params, cache, y, _sweep, propagate, hyper.gamma_h)
