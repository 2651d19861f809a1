"""Untimed correctness gate, run before anything is measured.

At a workload's own shape it checks that each backward pass performs the
documented number of ridge factorizations, and that substituting the true
layer Jacobian into the displacement recursion reproduces -gamma_h times
the backprop gradient. Results are ``diagnostics.SuiteCheck`` records.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from tprop import diagnostics, gru, linalg, rnn, targetprop

# Factorizations per backward call, by (model, method).
FACTORIZATIONS = {
    ("rnn", "bp"): 0, ("rnn", "tp"): 1, ("rnn", "tp-dtp"): 1, ("rnn", "tp-exact"): 1,
    ("gru", "bp"): 0, ("gru", "tp"): 3,
}
VARIANTS = {"tp": targetprop.LINEARIZED, "tp-dtp": targetprop.FINITE_DIFFERENCE,
            "tp-exact": targetprop.EXACT_INVERSE}
JACOBIAN_TOL = 1e-9


def _rel_gap(actual: dict, expected: dict) -> float:
    return max(float(np.linalg.norm(actual[k] - v)) / max(float(np.linalg.norm(v)), 1e-300)
               for k, v in expected.items())


def _backward(model, method, params, cache, y, hyper):
    if method == "bp":
        return (gru.gru_bptt if model == "gru" else rnn.bptt)(params, cache, y)
    if model == "gru":
        return gru.gru_tp_backward(params, cache, y, hyper)
    return targetprop.tp_direction(params, cache, y,
                                   dataclasses.replace(hyper, variant=VARIANTS[method]))


def check_shape(tag: str, pairs, x: np.ndarray, y: np.ndarray, n_out: int,
                seed: int) -> list[diagnostics.SuiteCheck]:
    """Run the gate for the (model, method) pairs on one input batch x
    (tau, d, B) with integer labels y."""
    hyper = targetprop.TpHyper(gamma_h=1e-2, gamma_theta=1e-1, r=1.0)
    d = x.shape[1]
    out = []
    for model in sorted({m for m, _ in pairs}):
        if model == "gru":
            params = gru.init_gru_params(100, d, n_out, rnn.SOFTMAX_CE, seed)
            cache = gru.gru_forward(params, x)
            grads = gru.gru_bptt(params, cache, y)
            tp = gru.gru_tp_backward(params, cache, y, hyper, debug_true_jacobian=True)
            names = gru.RECURRENT_TENSORS
        else:
            params = rnn.init_params(100, d, n_out, "tanh", rnn.SOFTMAX_CE, seed)
            cache = rnn.forward(params, x)
            grads = rnn.bptt(params, cache, y)
            tp = targetprop.backward_targets(params, cache, y, hyper, debug_true_jacobian=True)
            names = ("W_xh", "W_hh", "b_h")
        expected = {n: -hyper.gamma_h * grads[n] for n in names}
        expected["W_hy"] = -grads["W_hy"]
        expected["b_y"] = -grads["b_y"]
        gap = _rel_gap(tp, expected)
        out.append(diagnostics.SuiteCheck(
            "jacobian", f"{tag}/{model}", gap <= JACOBIAN_TOL, gap, JACOBIAN_TOL))
        for m, method in pairs:
            if m != model:
                continue
            before = linalg.factorization_count()
            direction = _backward(model, method, params, cache, y, hyper)
            count = linalg.factorization_count() - before
            want = FACTORIZATIONS[(model, method)]
            out.append(diagnostics.SuiteCheck(
                "factorizations", f"{tag}/{model}-{method}", count == want, count, want))
            finite = all(np.all(np.isfinite(v)) for v in direction.values())
            out.append(diagnostics.SuiteCheck(
                "finite", f"{tag}/{model}-{method}", finite, float(finite), 1.0))
    return out
