"""Backward target displacements through layerwise regularized inverses.

Instead of chaining transposed Jacobians, the backward pass propagates the
displacement lambda_t = v_t - h_t between a virtual target v_t and the state
h_t attained on the forward pass. One step of the recurrence maps the
displacement through the (linearization of the) regularized inverse of the
transition, and the parameter direction is assembled exactly like a gradient,
with lambda_t standing in for the backpropagated error.

The regularized inverse of h -> a(W_xh x + W_hh h + b_h) is

    v -> V (a^{-1}(proj(v)) - W_xh x - b_h),   V = (W_hh^T W_hh + r I)^{-1} W_hh^T,

where proj clips v into the activation's shrunken image so a^{-1} stays
finite; the activation applies it inside its inverse. V is computed once
per backward pass, whatever the sequence length, which is what makes the
method cheap; the factorization counter in :mod:`tprop.linalg` lets tests
pin that down.

Past that one factorization, every rule does a BPTT step's work per step:
one GEMM, with V where BPTT has W_hh^T, plus the pointwise work below. Each
rule forms what it needs for a block of steps at once, in one block buffer.

- linearized: one product S_t * lam, S_t = (a^{-1})'(proj(h_t)), formed as
  1 / max(a'(u_t), floor) from the a'(u_t) block the sweep forms anyway,
  with floor the least a' over the projected range.
- finite difference: one a^{-1}(proj(h_t + lam)) less the block's
  a^{-1}(proj(h_t)). W_xh x_t + b_h cancels between the two inverses, so
  it is never formed.
- exact inverse: one a^{-1}(proj(h_t + lam)) less W_xh x_t + b_h, with the
  block's W_xh x_t formed at once in one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rnn
from .activations import CLIP_MARGIN

# Each rule is named as ``tprop train --method`` names it.
LINEARIZED = "tp"
FINITE_DIFFERENCE = "tp-dtp"
EXACT_INVERSE = "tp-exact"
VARIANTS = (LINEARIZED, FINITE_DIFFERENCE, EXACT_INVERSE)


def check_hyper(gamma_h: float, r: float, epsilon: float) -> None:
    """Raise ValueError unless gamma_h and the ridge coefficient r are finite
    and nonnegative and the clip margin epsilon lies in (0, 0.5), where every
    activation's projected range is a nonempty interval inside its image."""
    if not 0 <= gamma_h < np.inf:
        raise ValueError(f"target stepsize gamma_h must be finite and >= 0, got {gamma_h}")
    if not 0 <= r < np.inf:
        raise ValueError(f"r must be finite and >= 0, got {r}")
    if not 0 < epsilon < 0.5:
        raise ValueError(f"projection clip margin epsilon must lie in (0, 0.5), got {epsilon}")


@dataclass
class TpHyper:
    """Hyperparameters of the target-propagation backward pass.

    gamma_h scales the initial displacement at the last step, r is the ridge
    coefficient of the inverses, epsilon the clip margin of the projection.
    No backward pass reads gamma_theta: the training loop steps with
    ExperimentConfig.gamma_theta. The field stays because perfbench/gate.py
    passes it.
    """

    gamma_h: float = 1e-2
    gamma_theta: float = 1e-1
    r: float = 1.0
    epsilon: float = CLIP_MARGIN
    variant: str = LINEARIZED

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        check_hyper(self.gamma_h, self.r, self.epsilon)


def inverse_apply(
    params: rnn.RnnParams,
    V: np.ndarray,
    x_t: np.ndarray,
    v_t: np.ndarray,
    eps: float = CLIP_MARGIN,
) -> np.ndarray:
    """Regularized inverse of the step-t transition, applied to target v_t.

    Columns are independent samples; x_t is (d, B) and v_t is (p, B), or
    (tau, d, B) and (tau, p, B) stacks of them.
    """
    z = params.activation.inverse(v_t, eps)
    return V @ (z - rnn._project(params.W_xh, x_t) - params.b_h[:, None])


def _propagator(params: rnn.RnnParams, cache: rnn.ForwardCache, V: np.ndarray,
                variant: str, eps: float):
    """The displacement step lam_{t+1} -> lam_t of one variant, as the
    per-block factory ``propagate(lo, hi, es) -> step(i, lam)`` of
    :func:`rnn._backward` (t = lo + i), where es, the RNN block's local
    factors, is its a'(u_t) buffer; the module docstring gives each
    rule's work per block and per step."""
    hs, xs, act = cache.hs, cache.xs, params.activation
    if variant == LINEARIZED:
        # V diag(da^{-1}(proj(h_t))) lam: the linearized inverse stands in for
        # the transposed layer Jacobian W_hh^T diag(a'(u_t)) of backprop
        floor = act.deriv_floor(eps)

        def linearized(lo, hi, es):
            S = np.maximum(es, floor)  # from es = a'(u_t), before the sweep overwrites it
            np.divide(1.0, S, out=S)

            def step(i, lam):
                s = S[i]
                s *= lam  # in place: S[i] is read once
                return V @ s
            return step
        return linearized

    # The displacement at h_{t-1} is f^{-1}(v_t) less a reference point, with
    # f^{-1}(v) = V (a^{-1}(proj(v)) - W_xh x_t - b_h). Finite differences
    # take f^{-1}(h_t) (v_{t-1} = h_{t-1} + f^{-1}(v_t) - f^{-1}(h_t), which
    # corrects the inverse's reconstruction error), where W_xh x_t + b_h
    # cancels: the step is V (a^{-1}(proj(h_t + lam)) - a^{-1}(proj(h_t))).
    if variant == FINITE_DIFFERENCE:
        def finite_difference(lo, hi, es):
            base = act.inverse(hs[lo + 1:hi + 1], eps)
            return lambda i, lam: V @ (act.inverse(hs[lo + i + 1] + lam, eps) - base[i])
        return finite_difference

    # The exact inverse takes h_{t-1} (v_{t-1} = f^{-1}(v_t)), subtracting
    # in inverse_apply's order (a^{-1}(proj(v)) - W_xh x_t) - b_h.
    b_h = params.b_h[:, None]

    def exact_inverse(lo, hi, es):
        xw = rnn._project(params.W_xh, xs[lo:hi])
        return lambda i, lam: (
            V @ (act.inverse(hs[lo + i + 1] + lam, eps) - xw[i] - b_h) - hs[lo + i])
    return exact_inverse


def tp_direction(
    params: rnn.RnnParams,
    cache: rnn.ForwardCache,
    y,
    hyper: TpHyper,
    debug_true_jacobian: bool = False,
) -> rnn.Direction:
    """Displacement backward pass of hyper.variant; returns an update direction.

    The recursion starts from lambda_tau = -gamma_h * dloss/dh_tau and stops
    after producing the displacement for step 1 (a step-0 displacement would
    multiply nothing). V comes from one ridge solve per call, behind one
    counted factorization.
    The difference variant (tp-dtp) agrees with the linearized one (tp) up
    to O(gamma_h^2): halving gamma_h shrinks the gap about 4x. The plain
    inverse variant (tp-exact) drops the correction term. Its
    recursion amplifies rounding, so compare it by directions at a fixed
    cache, never by training trajectories: directions 4e-16 apart can end
    a 30-iteration run with parameters 4e-2 apart.

    With ``debug_true_jacobian`` the inverse operator is replaced by the true
    transposed layer Jacobian, which turns the result into -gamma_h times the
    backprop gradient for the recurrent tensors; useful as a wiring check.
    """
    rnn._check_cache(params, cache, cache.tau + 1)
    V = linalg.ridge_pinv(params.W_hh, hyper.r)
    if debug_true_jacobian:
        propagate = rnn._transposed_jacobian(params)
    else:
        propagate = _propagator(params, cache, V, hyper.variant, hyper.epsilon)
    return rnn._backward(params, cache, y, rnn._blocks, propagate, hyper.gamma_h)


backward_targets = tp_direction  # earlier name, still called by perfbench/gate.py
