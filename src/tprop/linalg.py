"""Dense linear algebra: ridge pseudo-inverses, orthogonal init, norms.

Everything operates on float64 numpy arrays. The one piece of state in this
module is a monotone counter of Cholesky factorizations, used by tests and by
the benchmark command to verify that backward passes amortize their matrix
inversions (one per recurrent matrix per backward call, however long the
sequence); ``ridge_pinv`` solves a matrix or a stack of them at once.
"""

from __future__ import annotations

import numpy as np


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class SingularSystem(ValueError):
    """The normal-equations matrix is not positive definite.

    Raised when r = 0 and W is rank deficient (or the system has overflowed
    to non-finite values, which the training loop treats as divergence).
    """


_factorizations = 0


def factorization_count() -> int:
    """Total Cholesky factorizations performed since import."""
    return _factorizations


def ridge_pinv(W: np.ndarray, r: float) -> np.ndarray:
    """Regularized pseudo-inverse V = (W^T W + r I)^{-1} W^T, by one solve.

    A Cholesky factorization, counted by :func:`factorization_count`, only
    checks that the system matrix W^T W + r I is positive definite.

    Parameters
    ----------
    W : (m, n) array, or a (k, m, n) stack, which counts k factorizations
    r : float
        Ridge coefficient, finite and nonnegative. With r = 0 the matrix W has
        to be full column rank, otherwise SingularSystem is raised.

    Returns
    -------
    (n, m) array, or the (k, n, m) stack of each matrix's own V, bit for bit
    """
    global _factorizations
    W = np.asarray(W, dtype=np.float64)
    if W.ndim not in (2, 3):
        raise DimensionMismatch(f"expected a matrix or a stack of them, got shape {W.shape}")
    if not 0 <= r < np.inf:
        raise ValueError(f"ridge coefficient must be finite and nonnegative, got {r}")
    A = W.mT @ W + r * np.eye(W.shape[-1])
    if not np.all(np.isfinite(A)):
        raise SingularSystem("normal equations contain non-finite entries")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            f"W^T W + {r} I is not positive definite (rank-deficient W?)"
        ) from exc
    _factorizations += len(A) if A.ndim == 3 else 1
    try:  # LU can still meet a zero pivot in a matrix Cholesky just passed
        V = np.linalg.solve(A, W.mT)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"ridge solve failed: {exc}") from exc
    if not np.all(np.isfinite(V)):
        raise SingularSystem("ridge solve produced non-finite entries")
    return V


def orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random (semi-)orthogonal matrix drawn via QR of a Gaussian.

    The sign of R's diagonal is folded into Q so the distribution does not
    depend on the QR implementation's sign convention. Square outputs are
    orthogonal; rectangular ones have orthonormal rows or columns, whichever
    fits.
    """
    wide = cols > rows
    a = rng.standard_normal((cols, rows) if wide else (rows, cols))
    q, rdiag = np.linalg.qr(a)
    s = np.sign(np.diag(rdiag))
    s[s == 0] = 1.0
    q = q * s
    # keep parameter tensors C-contiguous whatever LAPACK hands back
    return np.ascontiguousarray(q.T if wide else q)


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value, from an SVD.

    Vectors are treated as single-column matrices, so their spectral norm is
    the Euclidean norm.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 1:
        A = A[:, None]
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix or vector, got shape {A.shape}")
    if A.size == 0:
        return 0.0
    return float(np.linalg.norm(A, 2))
