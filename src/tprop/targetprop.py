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
finite. V is computed once per backward pass, whatever the sequence length,
which is what makes the method cheap; the factorization counter in
:mod:`tprop.linalg` lets tests pin that down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, rnn

LINEARIZED = "linearized"
FINITE_DIFFERENCE = "finite_difference"
EXACT_INVERSE = "exact_inverse"
VARIANTS = (LINEARIZED, FINITE_DIFFERENCE, EXACT_INVERSE)


@dataclass
class TpHyper:
    """Hyperparameters of the target-propagation backward pass.

    gamma_h scales the initial displacement at the last step, gamma_theta is
    the parameter stepsize applied by the training loop, r the ridge
    coefficient of the inverses, epsilon the clip margin of the projection.
    """

    gamma_h: float = 1e-2
    gamma_theta: float = 1e-1
    r: float = 1.0
    epsilon: float = 1e-3
    variant: str = LINEARIZED

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")


def precompute_V(params: rnn.RnnParams, r: float) -> np.ndarray:
    """Ridge pseudo-inverse of the recurrent matrix; one factorization."""
    return linalg.ridge_pinv(params.W_hh, r)


def inverse_apply(
    params: rnn.RnnParams,
    V: np.ndarray,
    x_t: np.ndarray,
    v_t: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Regularized inverse of the step-t transition, applied to target v_t.

    Columns are independent samples; x_t is (d, B) and v_t is (p, B), or
    (tau, d, B) and (tau, p, B) stacks of them.
    """
    act = params.activation
    z = act.inverse(act.project(v_t, eps), eps)
    return V @ (z - params.W_xh @ x_t - params.b_h[:, None])


def inverse_jacobian_T_apply(
    params: rnn.RnnParams,
    V: np.ndarray,
    h_t: np.ndarray,
    lam: np.ndarray,
    eps: float = 1e-3,
) -> np.ndarray:
    """Linearized inverse step: V diag(da^{-1}(proj(h_t))) lam, columnwise.

    This is the operator the backward recursion applies in place of the
    transposed layer Jacobian W_hh^T diag(a'(u_t)) that plain backprop uses.
    The inverse derivative is evaluated at the projected state, which keeps
    it finite when h_t saturates (the clip is only active there).
    """
    act = params.activation
    s = act.inv_deriv(act.project(h_t, eps), eps)
    return V @ (s * lam)


_TRUE_JACOBIAN = "true_jacobian"  # debug rule, see backward_targets


def _propagator(params: rnn.RnnParams, cache: rnn.ForwardCache, V: np.ndarray,
                rule: str, eps: float):
    """The displacement step lam_{t+1} -> lam_t of one rule, as
    ``propagate(t, lam, e)`` for :func:`rnn._sweep`. Pointwise factors that
    do not depend on lam are computed for all steps up front."""
    if rule == _TRUE_JACOBIAN:
        # The actual transposed layer Jacobian: reproduces -gamma_h times the
        # backprop gradient exactly.
        return rnn._transposed_jacobian(params)
    if rule == LINEARIZED:
        act = params.activation
        S = act.inv_deriv(act.project(cache.hs[1:], eps), eps)
        return lambda t, lam, e: V @ (S[t] * lam)
    if rule == FINITE_DIFFERENCE:
        # v_{t-1} = h_{t-1} + f^{-1}(v_t) - f^{-1}(h_t), so the displacement is
        # the difference of the two inverse applications.
        base = inverse_apply(params, V, cache.xs, cache.hs[1:], eps)
        return lambda t, lam, e: (
            inverse_apply(params, V, cache.xs[t], cache.hs[t + 1] + lam, eps) - base[t]
        )
    # EXACT_INVERSE: v_{t-1} = f^{-1}(v_t) without the correction term.
    return lambda t, lam, e: (
        inverse_apply(params, V, cache.xs[t], cache.hs[t + 1] + lam, eps) - cache.hs[t]
    )


def _backward(params, cache, y, hyper, rule) -> rnn.Direction:
    rnn._check_cache(params, cache)
    V = precompute_V(params, hyper.r)
    propagate = _propagator(params, cache, V, rule, hyper.epsilon)
    return rnn._backward(params, cache, y, rnn._sweep, propagate, hyper.gamma_h)


def backward_targets(
    params: rnn.RnnParams,
    cache: rnn.ForwardCache,
    y,
    hyper: TpHyper,
    debug_true_jacobian: bool = False,
) -> rnn.Direction:
    """Linearized-inverse backward pass; returns an update direction.

    The recursion starts from lambda_tau = -gamma_h * dloss/dh_tau and stops
    after producing the displacement for step 1 (a step-0 displacement would
    multiply nothing). Exactly one matrix factorization happens per call.
    hyper.variant is ignored: this is always the linearized rule.

    With ``debug_true_jacobian`` the inverse operator is replaced by the true
    transposed layer Jacobian, which turns the result into -gamma_h times the
    backprop gradient for the recurrent tensors; useful as a wiring check.
    """
    rule = _TRUE_JACOBIAN if debug_true_jacobian else LINEARIZED
    return _backward(params, cache, y, hyper, rule)


def tp_direction(
    params: rnn.RnnParams, cache: rnn.ForwardCache, y, hyper: TpHyper
) -> rnn.Direction:
    """Dispatch on hyper.variant; the training loop calls this.

    The difference variant (finite_difference) agrees with the linearized
    one up to O(gamma_h^2): halving gamma_h shrinks the gap about 4x. The
    plain inverse variant (exact_inverse) drops the correction term.
    """
    return _backward(params, cache, y, hyper, hyper.variant)
