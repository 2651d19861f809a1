"""Vanilla recurrent network: forward rollout, losses, exact gradients.

Batches are stored column per sample: a sequence batch has shape
(tau, d, B) and hidden states are (p, B) matrices, so every time step is a
single matrix-matrix product. Losses are batch means, and the gradients
returned by :func:`bptt` are gradients of that batch-mean loss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .activations import Activation, get_activation
from .linalg import DimensionMismatch, orthogonal

SOFTMAX_CE = "softmax_ce"
MSE = "mse"
OUTPUT_KINDS = (SOFTMAX_CE, MSE)

# A direction has one entry per parameter tensor, same shapes as the params.
Direction = dict[str, np.ndarray]


class LabelMismatch(ValueError):
    """Labels do not fit the output head (shape, dtype or class range)."""


class CacheMismatch(ValueError):
    """Forward cache was produced by differently shaped parameters."""


@dataclass
class RnnParams:
    """Parameters of h_t = a(W_xh x_t + W_hh h_{t-1} + b_h), y = s(W_hy h_tau + b_y)."""

    W_xh: np.ndarray  # (p, d)
    W_hh: np.ndarray  # (p, p)
    b_h: np.ndarray   # (p,)
    W_hy: np.ndarray  # (K, p)
    b_y: np.ndarray   # (K,)
    activation: Activation
    output_kind: str = SOFTMAX_CE

    @property
    def p(self) -> int:
        return self.W_hh.shape[0]

    @property
    def d(self) -> int:
        return self.W_xh.shape[1]

    @property
    def n_out(self) -> int:
        return self.W_hy.shape[0]

    def tensors(self) -> Direction:
        """Live references to the parameter tensors, keyed by name."""
        return {
            "W_xh": self.W_xh,
            "W_hh": self.W_hh,
            "b_h": self.b_h,
            "W_hy": self.W_hy,
            "b_y": self.b_y,
        }


@dataclass
class ForwardCache:
    """Everything the backward passes need from one rollout of either cell.

    hs holds the RNN's h_0 .. h_tau (hs[0] is the zero initial state, and
    a'(u_t) is read from h_t), or the GRU's states at its sweep's block
    edges (``gru._edges``); either way hs[-1] is h_tau. hs is None when the
    rollout kept no states; such a cache serves losses and predictions only.
    """

    xs: np.ndarray           # (tau, d, B)
    hs: np.ndarray | None    # RNN (tau + 1, p, B); GRU (len(gru._edges(tau)), p, B)
    logits: np.ndarray  # (K, B)
    y_hat: np.ndarray   # (K, B); softmax probabilities, or the logits for mse
    output_kind: str

    @property
    def tau(self) -> int:
        return self.xs.shape[0]

    @property
    def batch(self) -> int:
        return self.xs.shape[2]


def init_params(
    p: int,
    d: int,
    n_out: int,
    activation: str | Activation = "tanh",
    output_kind: str = SOFTMAX_CE,
    seed: int = 0,
) -> RnnParams:
    """Random orthogonal weight matrices, zero biases."""
    if isinstance(activation, str):
        activation = get_activation(activation)
    if output_kind not in OUTPUT_KINDS:
        raise ValueError(f"unknown output kind {output_kind!r}")
    rng = np.random.default_rng(seed)
    return RnnParams(
        W_xh=orthogonal(rng, p, d),
        W_hh=orthogonal(rng, p, p),
        b_h=np.zeros(p),
        W_hy=orthogonal(rng, n_out, p),
        b_y=np.zeros(n_out),
        activation=activation,
        output_kind=output_kind,
    )


def softmax(z: np.ndarray) -> np.ndarray:
    """Columnwise softmax, stabilized by subtracting the column max."""
    z = z - z.max(axis=0, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=0, keepdims=True)


def _check_inputs(params, x_seq) -> np.ndarray:
    """The inputs as a float64 (tau, d, B) stack that fits the cell's input width."""
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3:
        raise DimensionMismatch(f"expected (tau, d, B) inputs, got {x_seq.shape}")
    if x_seq.shape[1] != params.d:
        raise DimensionMismatch(f"input dim {x_seq.shape[1]} but the cell expects {params.d}")
    return x_seq


# Time steps per block: a rollout that keeps states projects a block's inputs
# in one stacked product (the GRU stores its states at the block edges), and
# both backward sweeps keep block-sized buffers and contract each block in
# one GEMM over _BLOCK * B columns.
_BLOCK = 8


def _project(W: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The input projection W x of one step's inputs x (d, B) or a block's
    (C, d, B), into ``out`` when given. At d = 1 (pixel sequences) it is
    the broadcast product W * x: the same bits as the K = 1 GEMM, which
    BLAS runs slowly."""
    return (np.multiply if W.shape[1] == 1 else np.matmul)(W, x, out=out)


def _state_stack(out: np.ndarray | None, shape: tuple[int, ...], states: bool):
    """The stack a rollout writes its states into: ``out`` when given, else
    a new one (None without states). ``out`` must be a C-contiguous float64
    array of the given shape, so the rollout writes the same bits into it;
    its h_0 slot is zeroed and the rollout overwrites the rest."""
    if out is None:
        return np.zeros(shape) if states else None
    if not states:
        raise ValueError("out= receives the states, but states=False keeps none")
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.shape == shape and out.flags.c_contiguous):
        raise DimensionMismatch(f"out= must be a C-contiguous float64 {shape} array, got "
                                f"{getattr(out, 'dtype', type(out))} {np.shape(out)}")
    out[0] = 0.0
    return out


def _head(params, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logits W_hy h + b_y and the prediction: softmax, or the logits for mse."""
    logits = params.W_hy @ h + params.b_y[:, None]
    return logits, (softmax(logits) if params.output_kind == SOFTMAX_CE else logits)


def forward(params: RnnParams, x_seq: np.ndarray, *, states: bool = True,
            out: np.ndarray | None = None) -> ForwardCache:
    """Roll the network over x_seq (tau, d, B), starting from h_0 = 0.

    With ``states`` False only the running state is kept, so memory is
    O(p B) in tau; the logits and y_hat are the same bits either way, but
    the cache cannot feed a backward pass. A rollout that keeps its states
    projects the inputs W_xh x_t of _BLOCK steps in one stacked product
    into the state slots they precede, added in the per-step order
    (W_xh x_t + W_hh h) + b_h; without states it projects one step at a
    time, so neither holds a block of projections of its own. ``out``, a
    float64 (tau + 1, p, B) array, receives the states in place of a new
    stack (a training loop passes the previous batch's) and becomes
    ``cache.hs``.
    """
    x_seq = _check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    p = params.p
    hs = _state_stack(out, (tau + 1, p, B), states)
    act = params.activation
    b_h = params.b_h[:, None]
    h = np.zeros((p, B))
    if states:
        for lo in range(0, tau, _BLOCK):
            hi = min(lo + _BLOCK, tau)
            _project(params.W_xh, x_seq[lo:hi], out=hs[lo + 1:hi + 1])  # W_xh x_t, then h_t
            for t in range(lo + 1, hi + 1):
                hs[t] = h = act.apply(hs[t] + params.W_hh @ h + b_h)
    else:
        for x in x_seq:
            h = act.apply(_project(params.W_xh, x) + params.W_hh @ h + b_h)
    logits, y_hat = _head(params, h)
    return ForwardCache(
        xs=x_seq, hs=hs, logits=logits, y_hat=y_hat,
        output_kind=params.output_kind,
    )


def _check_labels(y, cache: ForwardCache):
    K, B = cache.logits.shape
    if cache.output_kind == SOFTMAX_CE:
        y = np.asarray(y)
        if y.shape != (B,) or not np.issubdtype(y.dtype, np.integer):
            raise LabelMismatch(
                f"need {B} integer class labels, got shape {y.shape} dtype {y.dtype}"
            )
        if y.min(initial=0) < 0 or y.max(initial=0) >= K:
            raise LabelMismatch(f"labels outside [0, {K})")
        return y
    y = np.asarray(y, dtype=np.float64)
    if y.shape == (B,) and K == 1:
        y = y[None, :]
    if y.shape != (K, B):
        raise LabelMismatch(f"need ({K}, {B}) regression targets, got {y.shape}")
    return y


def loss(y, cache: ForwardCache) -> float:
    """Batch-mean loss: cross entropy after softmax, or plain squared error.

    The squared error is averaged over output coordinates and batch, without
    a 1/2 factor.
    """
    y = _check_labels(y, cache)
    K, B = cache.logits.shape
    if cache.output_kind == SOFTMAX_CE:
        z = cache.logits
        zmax = z.max(axis=0)
        lse = zmax + np.log(np.exp(z - zmax).sum(axis=0))
        return float(np.mean(lse - z[y, np.arange(B)]))
    return float(np.mean((cache.y_hat - y) ** 2))


def output_delta(y, cache: ForwardCache) -> np.ndarray:
    """Gradient of the batch-mean loss with respect to the logits, (K, B)."""
    y = _check_labels(y, cache)
    K, B = cache.logits.shape
    if cache.output_kind == SOFTMAX_CE:
        delta = cache.y_hat.copy()
        delta[y, np.arange(B)] -= 1.0
        return delta / B
    return 2.0 * (cache.y_hat - y) / (K * B)


def _check_cache(params, cache, n_states: int):
    """Check that a forward cache of either cell kept its n_states states
    (tau + 1 for the RNN, one per block edge for the GRU) and fits params."""
    if cache.hs is None:
        raise CacheMismatch("forward ran with states=False and kept no per-step states")
    tau, d, B = cache.xs.shape
    if d != params.d or cache.hs.shape != (n_states, params.p, B):
        raise CacheMismatch(f"cache inputs {cache.xs.shape} and states {cache.hs.shape} "
                            f"do not fit params with p={params.p}, d={params.d}")
    if cache.logits.shape[0] != params.n_out:
        raise CacheMismatch("output head size changed since the forward pass")
    if cache.output_kind != params.output_kind:
        raise CacheMismatch("output kind changed since the forward pass")


def _flat(a: np.ndarray) -> np.ndarray:
    """(C, n, B) stack -> (n, C * B) matrix, one column per (step, sample)."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _sweep(params: RnnParams, cache: ForwardCache, signal: np.ndarray,
           propagate) -> Direction:
    """One backward pass over the time axis, for BPTT and every TP rule.

    ``signal`` is the (p, B) sensitivity (or displacement) at h_tau. For
    each block of _BLOCK steps t = lo .. hi - 1, ``propagate(lo, hi, es)``
    returns ``step(i, lam)``, which maps the sensitivity at h_{t+1} to the
    one at h_t (t = lo + i > 0); es[i] is a'(u_t), overwritten by
    e_t = a'(u_t) * lam before step(i, lam) is called. A block's errors are
    contracted with its inputs and states, one product per tensor, once the
    recursion has left it, so the rollout's states are the one (tau, p, B)
    stack held. Returns the directions of W_xh, W_hh and b_h.
    """
    d = {k: np.zeros_like(getattr(params, k)) for k in ("W_xh", "W_hh", "b_h")}
    lam = signal
    for hi in range(cache.tau, 0, -_BLOCK):
        lo = max(hi - _BLOCK, 0)
        es = params.activation.deriv(cache.hs[lo + 1:hi + 1])  # a'(u_t), overwritten by e_t below
        step = propagate(lo, hi, es)
        for i in range(hi - lo - 1, -1, -1):
            np.multiply(es[i], lam, out=es[i])
            if lo + i > 0:
                lam = step(i, lam)
        step = None  # free the block's factors before its errors are flattened
        E = _flat(es)
        es = None  # E holds the errors now; free the block before the states are flattened
        d["W_xh"] += E @ _flat(cache.xs[lo:hi]).T
        d["W_hh"] += E @ _flat(cache.hs[lo:hi]).T
        d["b_h"] += E.sum(axis=1)
    return d


def _transposed_jacobian(params: RnnParams):
    """BPTT's propagator: lam_t = W_hh^T e_t."""
    W_T = params.W_hh.T
    return lambda lo, hi, es: lambda i, lam: W_T @ es[i]


def _backward(params, cache, y, sweep, propagate, gamma_h: float | None = None) -> Direction:
    """The frame around one backward sweep, shared by BPTT and TP on both cells.

    BPTT (``gamma_h`` None) starts ``sweep`` from dloss/dh_tau = W_hy^T dz and
    returns the gradient. TP starts it from the displacement -gamma_h W_hy^T dz
    and returns a direction, with the output head's plain gradient negated so
    that theta + gamma_theta * d descends. Either cell's cache ends its states
    with h_tau, which the head reads.
    """
    dz = output_delta(y, cache)
    signal = params.W_hy.T @ dz
    if gamma_h is not None:
        signal = -gamma_h * signal
    d = sweep(params, cache, signal, propagate)
    d["W_hy"] = dz @ cache.hs[-1].T
    d["b_y"] = dz.sum(axis=1)
    if gamma_h is not None:
        d["W_hy"], d["b_y"] = -d["W_hy"], -d["b_y"]
    return d


def bptt(params: RnnParams, cache: ForwardCache, y) -> Direction:
    """Exact gradient of the batch-mean loss for every parameter tensor."""
    _check_cache(params, cache, cache.tau + 1)
    return _backward(params, cache, y, _sweep, _transposed_jacobian(params))
