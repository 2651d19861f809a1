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
    a'(u_t) is read from h_t), or the GRU's states at the block edges
    ``_edges(tau)``; either way hs[-1] is h_tau. hs is None when the
    rollout kept no states; such a cache serves losses and predictions only.
    """

    xs: np.ndarray           # (tau, d, B)
    hs: np.ndarray | None    # RNN (tau + 1, p, B); GRU (len(_edges(tau)), p, B)
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
    """The inputs as a float64 (tau, d, B) stack, B >= 1, that fits the
    cell's input width."""
    x_seq = np.asarray(x_seq, dtype=np.float64)
    if x_seq.ndim != 3 or x_seq.shape[2] < 1:
        raise DimensionMismatch(f"expected (tau, d, B) inputs with B >= 1, got {x_seq.shape}")
    if x_seq.shape[1] != params.d:
        raise DimensionMismatch(f"input dim {x_seq.shape[1]} but the cell expects {params.d}")
    return x_seq


# Time steps per block: a rollout that keeps states projects a block's inputs
# in one stacked product (the GRU stores its states at the block edges), and
# the backward pass keeps block-sized buffers and contracts each block in one
# GEMM over _BLOCK * B columns.
_BLOCK = 8


def _edges(tau: int) -> list[int]:
    """The block edges 0, tau - kC, ..., tau - C, tau (C = _BLOCK, k as
    large as leaves tau - kC > 0): the blocks of both cells' rollouts and
    backward passes, the partial one first in time."""
    return [0, *range(tau % _BLOCK or _BLOCK, tau + 1, _BLOCK)]


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
    the cache cannot feed a backward pass. The rollout projects the inputs
    W_xh x_t of each block of ``_edges(tau)`` in one stacked product into
    the state slots they precede, added in the per-step order
    (W_xh x_t + W_hh h) + b_h; without states the blocks are single steps,
    so neither holds a block of projections of its own. ``out``, a
    float64 (tau + 1, p, B) array, receives the states in place of a new
    stack (a training loop passes the previous batch's) and becomes
    ``cache.hs``.
    """
    x_seq = _check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    hs = _state_stack(out, (tau + 1, params.p, B), states)
    act = params.activation
    b_h = params.b_h[:, None]
    edges = _edges(tau) if states else range(tau + 1)
    h = np.zeros((params.p, B))
    for lo, hi in zip(edges, edges[1:]):
        xw = _project(params.W_xh, x_seq[lo:hi], out=hs[lo + 1:hi + 1] if states else None)
        for i in range(hi - lo):
            h = act.apply(xw[i] + params.W_hh @ h + b_h)
            if states:
                hs[lo + 1 + i] = h
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


def _blocks(params: RnnParams, cache: ForwardCache):
    """The RNN's blocks for :func:`_backward`: a block's factors are its a'(u_t)
    buffer es (read from h_t), its delta write overwrites es[i] with
    e_t = a'(u_t) * lam, and its contraction is one product per tensor."""
    def block(j, lo, hi):
        es = params.activation.deriv(cache.hs[lo + 1:hi + 1])

        def contract(d):
            nonlocal es
            E = _flat(es)
            es = None  # E holds the errors now; free the block before the states are flattened
            d["W_xh"] += E @ _flat(cache.xs[lo:hi]).T
            d["W_hh"] += E @ _flat(cache.hs[lo:hi]).T
            d["b_h"] += E.sum(axis=1)

        return es, lambda i, lam: np.multiply(es[i], lam, out=es[i]), contract
    return block


def _transposed_jacobian(params: RnnParams):
    """BPTT's propagator: lam_t = W_hh^T e_t."""
    W_T = params.W_hh.T
    return lambda lo, hi, es: lambda i, lam: W_T @ es[i]


def _backward(params, cache, y, blocks, propagate, gamma_h: float | None = None) -> Direction:
    """The one backward pass, for BPTT and every TP rule of both cells.

    BPTT (``gamma_h`` None) starts from dloss/dh_tau = W_hy^T dz and returns
    the gradient; TP starts from -gamma_h W_hy^T dz and returns a direction
    whose head part, the plain gradient, is negated so that
    theta + gamma_theta * d descends. The pass walks the blocks of
    ``_edges(tau)`` backwards: ``blocks(params, cache)(j, lo, hi)`` gives
    the steps t = lo .. hi - 1 between edges j - 1 and j as (b, local,
    contract), the block's factors b, ``local(i, lam)``, which writes step
    t = lo + i's deltas from lam at the state after it, and ``contract(d)``,
    which adds the block's deltas into the recurrent tensors' directions.
    The rule's ``propagate(lo, hi, b)`` returns ``step(i, lam)``, which maps
    lam to the state before step t > 0. The block is freed before the next
    one is formed, so a pass holds the states plus block-sized buffers.
    """
    dz = output_delta(y, cache)
    signal = params.W_hy.T @ dz
    if gamma_h is not None:
        signal = -gamma_h * signal
    # signal stays bound for the pass: freed after the first step, it left a
    # heap layout that read ~0.2 MB more peak RSS in the T=60 grid benchmark
    lam = signal
    d = {k: np.zeros_like(v) for k, v in params.tensors().items() if k not in ("W_hy", "b_y")}
    block = blocks(params, cache)
    edges = _edges(cache.tau)
    for j in range(len(edges) - 1, 0, -1):
        lo, hi = edges[j - 1], edges[j]
        b, local, contract = block(j, lo, hi)
        step = propagate(lo, hi, b)
        for i in range(hi - lo - 1, -1, -1):
            local(i, lam)
            if lo + i > 0:
                lam = step(i, lam)
        step = local = b = None  # free the rule's and the block's factors before the contraction
        contract(d)
    d["W_hy"] = dz @ cache.hs[-1].T
    d["b_y"] = dz.sum(axis=1)
    if gamma_h is not None:
        d["W_hy"], d["b_y"] = -d["W_hy"], -d["b_y"]
    return d


def bptt(params: RnnParams, cache: ForwardCache, y) -> Direction:
    """Exact gradient of the batch-mean loss for every parameter tensor."""
    _check_cache(params, cache, cache.tau + 1)
    return _backward(params, cache, y, _blocks, _transposed_jacobian(params))
