"""Pointwise activations with derivatives and analytic inverses.

Derivatives take the output h = a(u), not u (1 - h^2 for tanh), so a
rollout that keeps its states needs no pre-activations. Each activation
also owns the projection of a target into (a slightly shrunken copy of) its
image: ``inverse`` and ``inv_deriv`` evaluate a^{-1} and its derivative at
``project(v, eps)``, so they accept any input and callers never clip. The
shrink margin eps keeps both finite near saturation.
"""

from __future__ import annotations

import numpy as np


def sigmoid(u):
    """1 / (1 + exp(-u)); exp overflows to inf for very negative u, which
    correctly gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


class Activation:
    """A subclass defines ``apply``, ``deriv`` (a'(u), given the output
    h = a(u)), ``projected_range(eps)`` (the closed interval :meth:`project`
    clips into) and ``_inverse`` on that interval; ``inverse`` and
    ``inv_deriv`` read their input through the clip."""

    name: str = "base"

    def project(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        lo, hi = self.projected_range(eps)
        return np.clip(v, lo, hi)

    def inverse(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        return self._inverse(self.project(v, eps))

    def inv_deriv(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        """(a^{-1})'(proj(v)) = 1 / a'(u) at a(u) = proj(v), by the inverse
        function theorem; ``deriv`` takes the output, so it reads proj(v)."""
        return 1.0 / self.deriv(self.project(v, eps))

    def deriv_floor(self, eps: float):
        """The least a'(h) over the projected range, reached at its clip ends:
        1 / max(a'(h), floor) is ``inv_deriv(h, eps)`` without the clip, bit
        for bit for tanh and identity and within an ulp for sigmoid, whose
        ends eps and 1 - eps round apart."""
        return self.deriv(np.array(self.projected_range(eps))).min()

    def __repr__(self):
        return f"{type(self).__name__}()"


class Tanh(Activation):
    """tanh with inverse atanh(v) = 0.5 log((1+v)/(1-v)) on [-1+eps, 1-eps]."""

    name = "tanh"

    def apply(self, u):
        return np.tanh(u)

    def deriv(self, h):
        return 1.0 - h * h

    def projected_range(self, eps):
        return (-1.0 + eps, 1.0 - eps)

    def _inverse(self, v):
        return 0.5 * np.log((1.0 + v) / (1.0 - v))


class Sigmoid(Activation):
    """Logistic function; inverse is the logit, clipped to [eps, 1-eps].

    The inverse derivative 1/(v(1-v)) is at least 4 everywhere on (0, 1),
    attained at v = 1/2.
    """

    name = "sigmoid"

    def apply(self, u):
        return sigmoid(u)

    def deriv(self, h):
        return h * (1.0 - h)

    def projected_range(self, eps):
        return (eps, 1.0 - eps)

    def _inverse(self, v):
        return np.log(v) - np.log1p(-v)


class Identity(Activation):
    name = "identity"

    def apply(self, u):
        return np.asarray(u, dtype=np.float64)

    def deriv(self, h):
        return np.ones_like(np.asarray(h, dtype=np.float64))

    def projected_range(self, eps):
        return (-np.inf, np.inf)

    def _inverse(self, v):
        return v


ACTIVATIONS: dict[str, Activation] = {
    a.name: a for a in (Tanh(), Sigmoid(), Identity())
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}, expected one of {sorted(ACTIVATIONS)}"
        ) from None
