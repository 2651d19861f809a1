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
corresponding pieces of the true Jacobian, all three from one stacked ridge
solve per backward pass (three counted factorizations, for W_hn, W_hz and
W_hm), independent of sequence length. Parameter directions use the true
parameter Jacobians, and the output head keeps its plain gradient.

A rollout keeps h_t only at the edges of the backward pass's blocks of
C = ``rnn._BLOCK`` steps: t = 0 and t = tau - kC, ceil(tau / C) + 1 states,
the last of them h_tau (Gruslys et al. 2016 checkpoint the same way). The
backward passes re-run each block from its edge state with the forward's
own block roll, so every recomputed value carries the forward's bits, and
no pass holds a whole-axis stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg, rnn
from .activations import ACTIVATIONS, sigmoid
from .rnn import Direction, ForwardCache, SOFTMAX_CE, _Params, _tensor
from .targetprop import LINEARIZED, TpHyper

VARIANTS = (LINEARIZED,)  # the TP rules the GRU has: its gate inverses are linearized only


@dataclass
class GruParams(_Params):
    """Parameters of the cell in the module docstring, with the RNN's head."""

    W_im: np.ndarray = _tensor("pd")
    W_hm: np.ndarray = _tensor("pp")
    b_m: np.ndarray = _tensor("p")
    W_iz: np.ndarray = _tensor("pd")
    W_hz: np.ndarray = _tensor("pp")
    b_z: np.ndarray = _tensor("p")
    W_in: np.ndarray = _tensor("pd")
    b_in: np.ndarray = _tensor("p")
    W_hn: np.ndarray = _tensor("pp")
    b_hn: np.ndarray = _tensor("p")
    W_hy: np.ndarray = _tensor("Kp")
    b_y: np.ndarray = _tensor("K")
    output_kind: str = SOFTMAX_CE


RECURRENT_TENSORS = tuple(k for k, _ in GruParams.shapes() if k not in ("W_hy", "b_y"))


def init_gru_params(
    p: int, d: int, n_out: int, output_kind: str = SOFTMAX_CE, seed: int = 0
) -> GruParams:
    """Orthogonal weights, zero biases."""
    return GruParams._init(p, d, n_out, seed, output_kind)


class _Block(NamedTuple):
    """One block of steps t = lo .. hi - 1, as the backward re-runs it;
    i = t - lo indexes the steps."""

    h: np.ndarray       # (C + 1, p, B): h[i] is h_{t-1} and h[i + 1] is h_t
    m: np.ndarray       # (C, p, B)
    z: np.ndarray       # (C, p, B)
    av: np.ndarray      # (C, p, B): a_t
    n: np.ndarray       # (C, p, B)
    deltas: np.ndarray  # (4, p, C, B): preactivation deltas of a_t, z_t, m_t, n_t


def _roll(params: GruParams, x, h, block: _Block | None = None):
    """Run the cell over one block of inputs x (C, d, B) from the state h
    before it; returns the state after it. The block's input projections
    are one stacked product each, added in the order of the per-step
    expressions, so the states do not depend on where blocks start. With
    ``block``, each step's h_t, m_t, z_t, a_t and n_t are written into it."""
    xm, xz = rnn._project(params.W_im, x), rnn._project(params.W_iz, x)
    xn = rnn._project(params.W_in, x) + params.b_in[:, None]
    b_m, b_z, b_hn = params.b_m[:, None], params.b_z[:, None], params.b_hn[:, None]
    for i in range(len(x)):
        m = sigmoid(xm[i] + params.W_hm @ h + b_m)
        z = sigmoid(xz[i] + params.W_hz @ h + b_z)
        av = params.W_hn @ h + b_hn
        n = np.tanh(xn[i] + m * av)
        h = (1.0 - z) * h + z * n
        if block is not None:
            block.m[i], block.z[i], block.av[i], block.n[i], block.h[i + 1] = m, z, av, n, h
    return h


def gru_forward(params: GruParams, x_seq: np.ndarray, *, states: bool = True,
                out: np.ndarray | None = None) -> ForwardCache:
    """Roll the cell over x_seq (tau, d, B) from h_0 = 0, keeping the states
    at the block edges; ``states`` as in :func:`tprop.rnn.forward`, and
    without them the blocks are single steps. ``out``, a float64
    (len(rnn._edges(tau)), p, B) array, receives the edge states as in
    :func:`tprop.rnn.forward`."""
    x_seq = rnn._check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    edges = rnn._edges(tau) if states else range(tau + 1)
    hs = rnn._state_stack(out, (len(edges), params.p, B), states)
    h = np.zeros((params.p, B))
    for j in range(1, len(edges)):
        h = _roll(params, x_seq[edges[j - 1]:edges[j]], h)
        if states:
            hs[j] = h
    return rnn._cache(params, x_seq, hs, h)


def _blocks(params: GruParams, cache: ForwardCache):
    """The GRU's blocks for :func:`rnn._backward`: each is re-run from its edge
    state by :func:`_roll` into one set of block buffers, its ``_Block``; the
    delta write fills its ``deltas``, and the contraction is one product per
    group of tensors with the block's inputs and states."""
    p, B = cache.hs.shape[1:]
    C = rnn._BLOCK
    buf = _Block(np.empty((C + 1, p, B)), *(np.empty((C, p, B)) for _ in range(4)),
                 np.empty((4, p, C, B)))

    def block(j, lo, hi):
        b = _Block(buf.h[:hi - lo + 1], *(a[:hi - lo] for a in buf[1:-1]),
                   buf.deltas[:, :, :hi - lo])
        x = cache.xs[lo:hi]
        b.h[0] = cache.hs[j - 1]
        _roll(params, x, b.h[0], b)
        hprev = b.h[:-1]
        gz = (b.n - hprev) * b.z * (1.0 - b.z)   # factor from dh_t to zeta_t
        gn = b.z * (1.0 - b.n * b.n)             # from dh_t to nu_t
        gm = b.av * (1.0 - b.m)                  # from the a_t delta to mu_t

        def local(i, dh):
            da, dzeta, dmu, dnu = b.deltas[:, :, i]
            np.multiply(dh, gn[i], out=dnu)
            np.multiply(dnu, b.m[i], out=da)
            np.multiply(dh, gz[i], out=dzeta)
            np.multiply(da, gm[i], out=dmu)

        def contract(d):
            D = b.deltas.reshape(4 * p, -1)  # one column per (step, sample), as rnn._flat
            by_h = (D[:3 * p] @ rnn._flat(hprev).T).reshape(3, p, p)  # deltas of a, z, m
            by_x = (D[p:] @ rnn._flat(x).T).reshape(3, p, -1)         # deltas of z, m, n
            for k, g in zip(("W_hn", "W_hz", "W_hm", "W_iz", "W_im", "W_in"), (*by_h, *by_x)):
                d[k] += g
            for k, g in zip(("b_hn", "b_z", "b_m", "b_in"), D.sum(axis=1).reshape(4, p)):
                d[k] += g

        return b, local, contract
    return block


def _transposed_jacobian(params: GruParams):
    """BPTT's propagator: the true transposed Jacobian of h_t in h_{t-1},
    its three recurrent products as one against the stacked deltas."""
    W_T = np.concatenate((params.W_hn, params.W_hz, params.W_hm)).T

    def per_block(lo, hi, b: _Block):
        carry = 1.0 - b.z
        return lambda i, g: carry[i] * g + W_T @ b.deltas[:3, :, i].reshape(-1, g.shape[1])

    return per_block


def gru_bptt(params: GruParams, cache: ForwardCache, y) -> Direction:
    """Exact gradient of the batch-mean loss for every parameter tensor."""
    rnn._check_cache(params, cache, len(rnn._edges(cache.tau)))
    return rnn._backward(params, cache, y, _blocks, _transposed_jacobian(params))


def _linearized_inverse(Vs, eps: float):
    """TP's propagator: each transposed-Jacobian piece replaced by the
    linearized regularized inverse of its gate map, with Vs the (3, p, p)
    stack of the inverses of W_hn, W_hz and W_hm. Each gate g's logit slope,
    sigmoid's ``inv_deriv(g, eps)``, is 1 / max(g (1 - g), floor), as in the RNN."""
    V = np.concatenate(Vs, axis=1)
    floor = ACTIVATIONS["sigmoid"].deriv_floor(eps)

    def per_block(lo, hi, b: _Block):
        carry = 1.0 - b.z
        kz, km = b.z * carry, b.m * (1.0 - b.m)
        for k in (kz, km):  # 1 / max(g (1 - g), floor), in place
            np.reciprocal(np.maximum(k, floor, out=k), out=k)
        kz *= b.n - b.h[:-1]
        km *= b.av
        u = np.empty((3,) + carry.shape[1:])  # the three inverses' arguments

        def step(i, dh):
            da, _, _, dnu = b.deltas[:, :, i]
            u[0] = da
            np.multiply(kz[i], dh, out=u[1])
            np.multiply(km[i], dnu, out=u[2])
            return carry[i] * dh + V @ u.reshape(-1, dh.shape[1])

        return step

    return per_block


def gru_tp_backward(
    params: GruParams,
    cache: ForwardCache,
    y,
    hyper: TpHyper,
    debug_true_jacobian: bool = False,
) -> Direction:
    """Displacement backward pass through the three gate inverses.

    The state recursion uses the linearized inverses of the gate maps, the
    one rule in VARIANTS: any other ``hyper.variant`` raises ValueError.
    Parameter directions chain the displacement through the true parameter
    Jacobians, and the output head gets its negated plain gradient. One
    stacked ridge solve per call, three counted factorizations.

    With ``debug_true_jacobian`` the state recursion uses the true Jacobian
    pieces instead, which makes the recurrent-tensor result equal
    -gamma_h times :func:`gru_bptt`.
    """
    if hyper.variant not in VARIANTS:
        raise ValueError(f"the GRU has the TP rules {VARIANTS} only, not {hyper.variant!r}")
    rnn._check_cache(params, cache, len(rnn._edges(cache.tau)))
    Vs = linalg.ridge_pinv(np.stack((params.W_hn, params.W_hz, params.W_hm)), hyper.r)
    if debug_true_jacobian:
        propagate = _transposed_jacobian(params)
    else:
        propagate = _linearized_inverse(Vs, hyper.epsilon)
    return rnn._backward(params, cache, y, _blocks, propagate, hyper.gamma_h)
