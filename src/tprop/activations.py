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
    """Base class; subclasses define the actual maps.

    ``projected_range(eps)`` returns the closed interval that
    :meth:`project` clips into; ``inverse`` and ``inv_deriv`` read their
    input through that clip.
    """

    name: str = "base"

    def apply(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def deriv(self, h: np.ndarray) -> np.ndarray:
        """a'(u), given the output h = a(u) rather than u itself."""
        raise NotImplementedError

    def projected_range(self, eps: float) -> tuple[float, float]:
        raise NotImplementedError

    def project(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        lo, hi = self.projected_range(eps)
        return np.clip(v, lo, hi)

    def inverse(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        return self._inverse(self.project(v, eps))

    def inv_deriv(self, v: np.ndarray, eps: float = 1e-3) -> np.ndarray:
        return self._inv_deriv(self.project(v, eps))

    def _inverse(self, v):
        raise NotImplementedError

    def _inv_deriv(self, v):
        raise NotImplementedError

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

    def _inv_deriv(self, v):
        return 1.0 / (1.0 - v * v)


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

    def _inv_deriv(self, v):
        return 1.0 / (v * (1.0 - v))


class ReLU(Activation):
    """max(0, u). Experimental for target propagation.

    The map is not injective, so the "inverse" below is only a pseudo-inverse
    on the clipped range [eps, inf): it returns v itself. Derivative at the
    kink (u = 0) is taken to be 0. Provided for completeness; tanh is the
    recommended recurrent activation.
    """

    name = "relu"

    def apply(self, u):
        return np.maximum(u, 0.0)

    def deriv(self, h):
        return (np.asarray(h) > 0.0).astype(np.float64)

    def projected_range(self, eps):
        return (eps, np.inf)

    def _inverse(self, v):
        return np.asarray(v, dtype=np.float64).copy()

    def _inv_deriv(self, v):
        return np.ones_like(np.asarray(v, dtype=np.float64))


class Identity(Activation):
    name = "identity"

    def apply(self, u):
        return np.asarray(u, dtype=np.float64)

    def deriv(self, h):
        return np.ones_like(np.asarray(h, dtype=np.float64))

    def projected_range(self, eps):
        return (-np.inf, np.inf)

    def project(self, v, eps: float = 1e-3):
        return np.asarray(v, dtype=np.float64)

    def _inverse(self, v):
        return np.asarray(v, dtype=np.float64).copy()

    def _inv_deriv(self, v):
        return np.ones_like(np.asarray(v, dtype=np.float64))


ACTIVATIONS: dict[str, Activation] = {
    a.name: a for a in (Tanh(), Sigmoid(), ReLU(), Identity())
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}, expected one of {sorted(ACTIVATIONS)}"
        ) from None
