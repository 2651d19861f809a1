"""Quantitative checks tying the implementation to its analysis.

These functions evaluate both sides of the inequalities that justify the
displacement backward pass: the gap between the backprop direction and the
target-propagation direction against its product-of-propagators bound, the
single-layer Jacobian gap against its explicit expression, the matrix-product
perturbation inequality, and the approximate-gradient-descent rate. Every
check is a strict inequality verified with additive slack 1e-9; a violation
is a hard failure.

The named suites at the bottom (grad, equiv, lemma, dtp, gru, approx-gd) are
what ``tprop check`` runs; the acceptance tests call them too, so the command
line and the test suite exercise the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import gru as gru_mod
from . import linalg, rnn, targetprop
from .activations import CLIP_MARGIN, get_activation
from .linalg import spectral_norm
from .targetprop import TpHyper

SLACK = 1e-9

THETA_H = ("W_xh", "W_hh", "b_h")


class Saturation(ValueError):
    """Attained state sits on the projection boundary; the layer gap
    expression assumes an interior state."""


@dataclass
class GapReport:
    measured: float
    bound: float
    a: float = 0.0            # sup of forward propagator norms
    b: float = 0.0            # sup of inverse propagator norms
    c: float = 0.0            # accumulated product constant
    layer_gaps: list = None   # per-step operator gaps

    @property
    def violation(self) -> bool:
        return self.measured > self.bound + SLACK


@dataclass
class FdReport:
    max_rel_err: float
    checked: int
    worst: tuple


@dataclass
class SuiteCheck:
    suite: str
    name: str
    passed: bool
    measured: float
    bound: float


def finite_diff_check(loss_fn, tensors: dict, grads: dict) -> FdReport:
    """Central-difference check, at step 1e-5, of an analytic gradient at
    every coordinate.

    ``loss_fn`` takes no arguments and evaluates the loss at the current
    contents of ``tensors``; coordinates are wiggled in place and restored.
    Relative error per coordinate is |fd - g| / max(|fd|, |g|, 1e-6).
    """
    step = 1e-5
    coords = [(name, i) for name, arr in tensors.items() for i in range(arr.size)]
    max_rel, worst = 0.0, ("", -1)
    for name, i in coords:
        arr = tensors[name]
        # index the original array; reshape(-1) on a non-contiguous tensor
        # would wiggle a copy and leave the loss untouched
        pos = np.unravel_index(i, arr.shape)
        saved = arr[pos]
        arr[pos] = saved + step
        f_plus = loss_fn()
        arr[pos] = saved - step
        f_minus = loss_fn()
        arr[pos] = saved
        fd = (f_plus - f_minus) / (2.0 * step)
        an = grads[name].reshape(-1)[i]
        rel = abs(fd - an) / max(abs(fd), abs(an), 1e-6)
        if rel > max_rel:
            max_rel, worst = rel, (name, i)
    return FdReport(max_rel_err=max_rel, checked=len(coords), worst=worst)


def _operator_pair(params, V, h):
    """The two operators the backward recursions apply at the attained
    state h (p,) of one sample: the transposed layer Jacobian
    W_hh^T diag(a'(u)) of backprop, and the linearized inverse V diag(S),
    S = da^{-1}(proj(h)) at the clip margin CLIP_MARGIN."""
    act = params.activation
    return params.W_hh.T * act.deriv(h)[None, :], V * act.inv_deriv(h)[None, :]


def direction_gap(params: rnn.RnnParams, cache: rnn.ForwardCache, y, r: float) -> GapReport:
    """Gap between the backprop gradient and the displacement direction for
    the recurrent tensors, against the accumulated-propagator bound.

    Both directions are produced by the same code paths the trainer uses
    (bptt and tp_direction at gamma_h = 1, the latter negated since the
    update direction descends). The bound is c * sup_t ||A_t - B_t|| with
    A_t, B_t the per-step propagators, a = sup||A_t||, b = sup||B_t||, and
    c = sum_{t=1..tau} sum_{s<t} a^s b^{t-1-s}. Norms of the per-tensor
    differences are spectral (Euclidean for the bias), the max is reported.
    """
    grads = rnn.bptt(params, cache, y)
    hyper = TpHyper(gamma_h=1.0, r=r)
    d = targetprop.tp_direction(params, cache, y, hyper)
    measured = max(spectral_norm(grads[n] + d[n]) for n in THETA_H)
    V = linalg.ridge_pinv(params.W_hh, r)
    tau, _, B = cache.xs.shape
    a_sup = b_sup = 0.0
    layer_gaps = []
    for t in range(tau):
        worst = 0.0
        for col in range(B):
            M_bp, M_tp = _operator_pair(params, V, cache.hs[t + 1][:, col])
            worst = max(worst, spectral_norm(M_bp - M_tp))
            a_sup = max(a_sup, spectral_norm(M_bp))
            b_sup = max(b_sup, spectral_norm(M_tp))
        layer_gaps.append(worst)
    c = 0.0
    for t in range(1, tau + 1):
        c += sum(a_sup ** s * b_sup ** (t - 1 - s) for s in range(t))
    bound = c * max(layer_gaps)
    return GapReport(measured=measured, bound=bound, a=a_sup, b=b_sup, c=c,
                     layer_gaps=layer_gaps)


def layer_jacobian_gap(
    params: rnn.RnnParams, h_prev: np.ndarray, x_t: np.ndarray, r: float
) -> GapReport:
    """Single-step operator gap against its closed-form bound.

    measured = ||W_hh^T D - V D_inv|| with D = diag(a'(u)) and D_inv its
    elementwise inverse evaluated at the attained state; the bound is
    ||W_hh^T|| (||D - D^{-1}|| + ||I - (W_hh^T W_hh + r I)^{-1}|| ||D^{-1}||).
    Raises Saturation when the attained state touches the projection
    boundary, where the inverse-derivative identity stops holding.
    """
    act = params.activation
    u = params.W_xh @ x_t + params.W_hh @ h_prev + params.b_h
    h = act.apply(u)
    lo, hi = act.projected_range(CLIP_MARGIN)
    if np.any(h <= lo) or np.any(h >= hi):
        raise Saturation("attained state reaches the projection clip")
    M_bp, M_tp = _operator_pair(params, linalg.ridge_pinv(params.W_hh, r), h)
    measured = spectral_norm(M_bp - M_tp)
    s_fwd = act.deriv(h)
    p = params.p
    A = params.W_hh.T @ params.W_hh + r * np.eye(p)
    eye_gap = spectral_norm(np.eye(p) - np.linalg.solve(A, np.eye(p)))
    diag_gap = float(np.max(np.abs(s_fwd - 1.0 / s_fwd)))
    inv_max = float(np.max(np.abs(1.0 / s_fwd)))
    w_norm = spectral_norm(params.W_hh.T)
    bound = w_norm * (diag_gap + eye_gap * inv_max)
    return GapReport(measured=measured, bound=bound)


def matrix_product_gap_check(As, Bs) -> GapReport:
    """Perturbation bound for products of matrices.

    ||A_t ... A_1 - B_t ... B_1|| <= delta * sum_{i<t} a^i b^{t-1-i}, with
    a, b the sups of the factor norms and delta the sup of ||A_i - B_i||.
    Holds for any t square factors each of As and Bs, all of one size.
    """
    t = len(As)
    prod_a = As[0].copy()
    prod_b = Bs[0].copy()
    for i in range(1, t):
        prod_a = As[i] @ prod_a
        prod_b = Bs[i] @ prod_b
    a = max(spectral_norm(A) for A in As)
    b = max(spectral_norm(B) for B in Bs)
    delta = max(spectral_norm(A - B) for A, B in zip(As, Bs))
    bound = delta * sum(a ** i * b ** (t - 1 - i) for i in range(t))
    return GapReport(measured=spectral_norm(prod_a - prod_b), bound=bound, a=a, b=b)


NOISE_MODES = ("zero", "constant", "adversarial")


def approx_gd_check(
    steps: int = 60,
    noise: str = "zero",
    eps: float = 0.0,
    seed: int = 0,
    gamma: float | None = None,
) -> GapReport:
    """Gradient descent with bounded gradient errors on a random quadratic
    in 10 dimensions.

    Runs x_{k+1} = x_k - gamma (grad f(x_k) + e_k) with ||e_k|| <= eps on
    f(x) = x^T H x / 2 (H positive definite, minimum value 0) and checks

        min_k ||grad f(x_k)||^2 <= (16/11) f(x_0) / (gamma K)
                                   + (32/11) (1/K) sum_k ||e_k||^2,

    valid for gamma <= 1/(2L). Noise modes: "zero", "constant" (random
    direction, norm eps), "adversarial" (opposing the gradient at norm eps).
    """
    if noise not in NOISE_MODES:
        raise ValueError(f"unknown noise mode {noise!r}, expected one of {NOISE_MODES}")
    if steps < 1:
        raise ValueError(f"need at least one step, got steps={steps}")
    dim = 10
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((dim, dim))
    H = G.T @ G / dim + 0.1 * np.eye(dim)
    L = spectral_norm(H)
    if gamma is None:
        gamma = 1.0 / (2.0 * L)
    elif gamma > 1.0 / (2.0 * L) + 1e-12:
        raise ValueError(f"stepsize {gamma} exceeds 1/(2L) = {1.0 / (2 * L)}")
    x = 2.0 * rng.standard_normal(dim)
    f0 = 0.5 * float(x @ H @ x)
    min_gsq = np.inf
    sum_eps2 = 0.0
    for _ in range(steps):
        g = H @ x
        min_gsq = min(min_gsq, float(g @ g))
        if noise == "zero" or eps == 0.0:
            e = np.zeros(dim)
        elif noise == "constant":
            v = rng.standard_normal(dim)
            e = eps * v / np.linalg.norm(v)
        else:  # adversarial
            gn = np.linalg.norm(g)
            e = -eps * g / gn if gn > 0 else np.zeros(dim)
        sum_eps2 += float(e @ e)
        x = x - gamma * (g + e)
    bound = (16.0 / 11.0) * f0 / (gamma * steps) + (32.0 / 11.0) * sum_eps2 / steps
    return GapReport(measured=float(min_gsq), bound=bound)


def dtp_linearization_gap(params, cache, y, gamma_hs, r: float) -> list[float]:
    """Frobenius gap between the difference and linearized variants for the
    recurrent tensors, one value per gamma_h. The gap shrinks quadratically,
    so each halving of gamma_h divides it by about four."""
    gaps = []
    for gh in gamma_hs:
        hyper = TpHyper(gamma_h=float(gh), r=r)
        fd = replace(hyper, variant=targetprop.FINITE_DIFFERENCE)
        lin = targetprop.tp_direction(params, cache, y, hyper)
        dtp = targetprop.tp_direction(params, cache, y, fd)
        sq = sum(float(np.sum((lin[n] - dtp[n]) ** 2)) for n in THETA_H)
        gaps.append(np.sqrt(sq))
    return gaps


# ---------------------------------------------------------------------------
# instance builders shared by the suites and the acceptance tests


def _orthogonal_rnn(rng, p, d, n_out, activation, w, wx, wy, bh) -> rnn.RnnParams:
    """A softmax RNN with scaled random orthogonal weights, bh-scaled Gaussian
    b_h and zero b_y, drawn from rng in the order W_xh, W_hh, b_h, W_hy."""
    return rnn.RnnParams(
        W_xh=wx * linalg.orthogonal(rng, p, d),
        W_hh=w * linalg.orthogonal(rng, p, p),
        b_h=bh * rng.standard_normal(p),
        W_hy=wy * linalg.orthogonal(rng, n_out, p),
        b_y=np.zeros(n_out),
        activation=get_activation(activation),
        output_kind=rnn.SOFTMAX_CE,
    )


def _rnn_instance(seed, activation, tau, p, d, n_out, B, w, wx, wy, bh, x_scale=1.0):
    """An _orthogonal_rnn, x_scale-scaled Gaussian inputs and uniform labels,
    drawn in that order from default_rng(seed), and the forward cache."""
    rng = np.random.default_rng(seed)
    params = _orthogonal_rnn(rng, p, d, n_out, activation, w, wx, wy, bh)
    x = x_scale * rng.standard_normal((tau, d, B))
    y = rng.integers(0, n_out, size=B)
    return params, rnn.forward(params, x), y


def _tanh_instance(seed, tau=6, B=2):
    return _rnn_instance(seed, "tanh", tau, 6, 3, 3, B, 0.9, 0.5, 0.3, 0.1, x_scale=0.5)


def _identity_instance(seed):
    return _rnn_instance(seed, "identity", 20, 8, 4, 3, 4, 1.0, 1.0, 0.3, 0.2)


def _grad_instance(cell, seed, tau, p, d, n_out, B):
    """The cell's ("rnn" or "gru") own init at seed, every bias redrawn at
    scale 0.1 in tensors() order from default_rng(seed), then the inputs and
    labels from that rng."""
    if cell == "gru":
        params = gru_mod.init_gru_params(p, d, n_out, rnn.SOFTMAX_CE, seed)
    else:
        params = rnn.init_params(p, d, n_out, "tanh", rnn.SOFTMAX_CE, seed)
    rng = np.random.default_rng(seed)
    for name, t in params.tensors().items():
        if name.startswith("b"):
            t[:] = 0.1 * rng.standard_normal(t.shape)
    x = rng.standard_normal((tau, d, B))
    return params, x, rng.integers(0, n_out, size=B)


def _substitution_gap(d: dict, grads: dict, gamma_h: float) -> float:
    """Worst relative gap, over the tensors of grads, of a TP direction d from
    -gamma_h times the gradient, or the plain negated gradient on the head."""
    worst = 0.0
    for n, g in grads.items():
        expected = -g if n in ("W_hy", "b_y") else -gamma_h * g
        ref = float(np.linalg.norm(expected))
        diff = float(np.linalg.norm(d[n] - expected))
        worst = max(worst, diff / max(ref, 1e-300))
    return worst


# ---------------------------------------------------------------------------
# named suites


def suite_grad() -> list[SuiteCheck]:
    out = []
    for cell, forward, bptt, shape in (
            ("rnn", rnn.forward, rnn.bptt, (10, 5, 3, 4, 3)),
            ("gru", gru_mod.gru_forward, gru_mod.gru_bptt, (3, 4, 2, 3, 3))):
        for seed in range(5):
            params, x, y = _grad_instance(cell, seed, *shape)
            grads = bptt(params, forward(params, x), y)
            rep = finite_diff_check(lambda: rnn.loss(y, forward(params, x)),
                                    params.tensors(), grads)
            out.append(SuiteCheck("grad", f"{cell}-fd-seed{seed}",
                                  rep.max_rel_err <= 1e-4, rep.max_rel_err, 1e-4))
    return out


def suite_equiv() -> list[SuiteCheck]:
    """With the identity activation, an orthogonal recurrent matrix and
    r = 0 the displacement direction is exactly -gamma_h times the gradient
    (and the head direction its plain negation)."""
    out = []
    gamma_h = 0.37
    for seed in range(10):
        params, cache, y = _identity_instance(seed)
        grads = rnn.bptt(params, cache, y)
        hyper = TpHyper(gamma_h=gamma_h, r=0.0)
        d = targetprop.tp_direction(params, cache, y, hyper)
        rel = _substitution_gap(d, grads, gamma_h)
        out.append(SuiteCheck("equiv", f"identity-orthogonal-seed{seed}",
                              rel <= 1e-8, rel, 1e-8))
    return out


def suite_lemma() -> list[SuiteCheck]:
    out = []
    for seed in range(20):
        params, cache, y = _tanh_instance(seed)
        rep = direction_gap(params, cache, y, r=1.0)
        out.append(SuiteCheck("lemma", f"direction-gap-seed{seed}",
                              not rep.violation, rep.measured, rep.bound))
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        p, d = 6, 3
        params = _orthogonal_rnn(rng, p, d, 2, "tanh", w=1.1, wx=0.5, wy=1.0, bh=0.1)
        h_prev = 0.6 * (2.0 * rng.random(p) - 1.0)
        x_t = 0.5 * rng.standard_normal(d)
        rep = layer_jacobian_gap(params, h_prev, x_t, r=0.5)
        out.append(SuiteCheck("lemma", f"layer-gap-seed{seed}",
                              not rep.violation, rep.measured, rep.bound))
    rng = np.random.default_rng(7)
    for i in range(100):
        n, size = 5, 6
        As = [rng.standard_normal((size, size)) for _ in range(n)]
        Bs = [A + 0.1 * rng.standard_normal((size, size)) for A in As]
        rep = matrix_product_gap_check(As, Bs)
        out.append(SuiteCheck("lemma", f"matrix-product-{i}",
                              not rep.violation, rep.measured, rep.bound))
    return out


DTP_GAMMAS = (1e-2, 5e-3, 2.5e-3, 1.25e-3, 6.25e-4)


def suite_dtp() -> list[SuiteCheck]:
    params, cache, y = _tanh_instance(3, tau=8, B=4)
    gaps = dtp_linearization_gap(params, cache, y, DTP_GAMMAS, r=1.0)
    out = []
    for i in range(len(gaps) - 1):
        ratio = gaps[i] / gaps[i + 1]
        ok = 3.2 <= ratio <= 4.8
        out.append(SuiteCheck("dtp", f"halving-ratio-{i}", ok, ratio, 4.8))
    return out


def suite_gru() -> list[SuiteCheck]:
    out = []
    gamma_h = 0.01
    for seed in range(5):
        params, x, y = _grad_instance("gru", seed, 6, 5, 3, 3, 3)
        cache = gru_mod.gru_forward(params, x)
        grads = gru_mod.gru_bptt(params, cache, y)
        hyper = TpHyper(gamma_h=gamma_h, r=1.0)
        before = linalg.factorization_count()
        d = gru_mod.gru_tp_backward(params, cache, y, hyper, debug_true_jacobian=True)
        n_fact = linalg.factorization_count() - before
        rel = _substitution_gap(d, grads, gamma_h)
        out.append(SuiteCheck("gru", f"substitution-seed{seed}",
                              rel <= 1e-10, rel, 1e-10))
        out.append(SuiteCheck("gru", f"three-factorizations-seed{seed}",
                              n_fact == 3, float(n_fact), 3.0))
    return out


def suite_approx_gd() -> list[SuiteCheck]:
    out = []
    for seed in range(50):
        for noise, eps in (("zero", 0.0), ("constant", 0.01), ("adversarial", 0.01)):
            rep = approx_gd_check(noise=noise, eps=eps, seed=seed)
            out.append(SuiteCheck("approx-gd", f"{noise}-seed{seed}",
                                  not rep.violation, rep.measured, rep.bound))
    return out


SUITES = {
    "grad": suite_grad,
    "equiv": suite_equiv,
    "lemma": suite_lemma,
    "dtp": suite_dtp,
    "gru": suite_gru,
    "approx-gd": suite_approx_gd,
}


def run_suite(name: str) -> list[SuiteCheck]:
    try:
        fn = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}, have {sorted(SUITES)}") from None
    return fn()
