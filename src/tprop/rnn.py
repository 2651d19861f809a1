"""Vanilla recurrent network: forward rollout, losses, exact gradients.

Batches are stored column per sample: a sequence batch has shape
(tau, d, B) and hidden states are (p, B) matrices, so every time step is a
single matrix-matrix product. Losses are batch means, and the gradients
returned by :func:`bptt` are gradients of that batch-mean loss.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields

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


def _tensor(shape: str):
    """A parameter tensor field; its shape names one size per axis, p
    (hidden), d (input) or K (output): "pd" is a (p, d) matrix."""
    return field(metadata={"shape": shape})


class _Params:
    """The parameter record of either cell: its ``_tensor`` fields, in the
    order :meth:`tensors` returns them, then its settings. Each size is
    read off the first tensor that has it."""

    @classmethod
    @functools.cache
    def shapes(cls) -> tuple[tuple[str, str], ...]:
        """Each tensor's name and declared shape, in field order."""
        return tuple((f.name, f.metadata["shape"]) for f in fields(cls) if "shape" in f.metadata)

    def tensors(self) -> Direction:
        """Live references to the parameter tensors, keyed by name."""
        return {k: getattr(self, k) for k, _ in self.shapes()}

    def _size(self, axis: str) -> int:
        """The size of the first tensor axis declared as ``axis``."""
        for k, shape in self.shapes():
            if axis in shape:
                return getattr(self, k).shape[shape.index(axis)]

    p = property(lambda self: self._size("p"))
    d = property(lambda self: self._size("d"))
    n_out = property(lambda self: self._size("K"))

    @classmethod
    def _init(cls, p: int, d: int, n_out: int, seed: int, output_kind: str, **settings):
        """Orthogonal matrices drawn from default_rng(seed) in field order,
        zero biases; an output kind outside OUTPUT_KINDS raises ValueError."""
        if output_kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {output_kind!r}")
        rng, size = np.random.default_rng(seed), {"p": p, "d": d, "K": n_out}
        return cls(**{k: orthogonal(rng, *(size[a] for a in s)) if len(s) == 2
                      else np.zeros(size[s[0]]) for k, s in cls.shapes()},
                   output_kind=output_kind, **settings)


@dataclass
class RnnParams(_Params):
    """Parameters of h_t = a(W_xh x_t + W_hh h_{t-1} + b_h), y = s(W_hy h_tau + b_y)."""

    W_xh: np.ndarray = _tensor("pd")
    W_hh: np.ndarray = _tensor("pp")
    b_h: np.ndarray = _tensor("p")
    W_hy: np.ndarray = _tensor("Kp")
    b_y: np.ndarray = _tensor("K")
    activation: Activation
    output_kind: str = SOFTMAX_CE


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


def init_params(
    p: int,
    d: int,
    n_out: int,
    activation: str = "tanh",
    output_kind: str = SOFTMAX_CE,
    seed: int = 0,
) -> RnnParams:
    """Random orthogonal weight matrices, zero biases."""
    return RnnParams._init(p, d, n_out, seed, output_kind, activation=get_activation(activation))


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


# Time steps per block: the backward pass walks the time axis in blocks,
# keeps block-sized buffers and contracts each block in one GEMM over
# _BLOCK * B columns; the GRU stores its states at the block edges.
_BLOCK = 8


def _edges(tau: int) -> list[int]:
    """The block edges 0, tau - kC, ..., tau - C, tau (C = _BLOCK, k as
    large as leaves tau - kC > 0): the blocks of both cells' rollouts and
    backward passes, the partial one first in time."""
    return [0, *range(tau % _BLOCK or _BLOCK, tau + 1, _BLOCK)]


def _project(W: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The input projection W x of one step's inputs x (d, B) or a stack of
    them (n, d, B), into ``out`` when given. At d = 1 (pixel sequences) it is
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


def _cache(params, x_seq: np.ndarray, hs: np.ndarray | None, h: np.ndarray) -> ForwardCache:
    """The forward cache of a rollout of either cell over x_seq that kept the
    states hs and ended in h = h_tau: the head's logits W_hy h + b_y and its
    prediction, softmax or the logits for mse."""
    logits = params.W_hy @ h + params.b_y[:, None]
    y_hat = softmax(logits) if params.output_kind == SOFTMAX_CE else logits
    return ForwardCache(xs=x_seq, hs=hs, logits=logits, y_hat=y_hat,
                        output_kind=params.output_kind)


def forward(params: RnnParams, x_seq: np.ndarray, *, states: bool = True,
            out: np.ndarray | None = None) -> ForwardCache:
    """Roll the network over x_seq (tau, d, B), starting from h_0 = 0.

    With ``states`` False only the running state is kept, so memory is
    O(p B) in tau; the logits and y_hat are the same bits either way, but
    the cache cannot feed a backward pass. With states, every W_xh x_t is
    formed in one stacked product into the slot h_t then overwrites, and
    each step adds in the order (W_xh x_t + W_hh h) + b_h. ``out``, a
    float64 (tau + 1, p, B) array, receives the states in place of a new
    stack (a training loop passes the previous batch's) and becomes
    ``cache.hs``.
    """
    x_seq = _check_inputs(params, x_seq)
    tau, _, B = x_seq.shape
    hs = _state_stack(out, (tau + 1, params.p, B), states)
    if states:
        _project(params.W_xh, x_seq, out=hs[1:])
    act, b_h = params.activation, params.b_h[:, None]
    h = np.zeros((params.p, B))
    for t in range(tau):
        xw = hs[t + 1] if states else _project(params.W_xh, x_seq[t])
        h = act.apply(xw + params.W_hh @ h + b_h)
        if states:
            hs[t + 1] = h
    return _cache(params, x_seq, hs, h)


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

    At each block edge a displacement whose largest entry is below 2^-900
    is flushed to exact zeros; a NaN one is kept, so a diverged pass still
    shows in its direction. Unless one step shrinks it by more than 2^-15,
    it then stays above 2^-1022 within a block, so no step runs on the
    subnormal operands x86 runs at a large penalty. Where the displacement
    decays (BPTT, the linearized and finite-difference TP rules), the
    deltas a flush drops sum to about 2^-900 times tau and the sizes of the
    inputs and states: under half an ulp of any direction entry above
    2^-830, so entries of normal size keep their bits, and the steps before
    a flush get exactly zero credit.
    """
    dz = output_delta(y, cache)
    lam = params.W_hy.T @ dz
    if gamma_h is not None:
        lam = -gamma_h * lam
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
        if np.abs(lam).max() < 2.0 ** -900:
            lam = np.zeros_like(lam)
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
