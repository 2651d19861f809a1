"""Dense linear algebra: ridge pseudo-inverses, orthogonal init, norms.

Everything operates on float64 numpy arrays. Besides the thread cap's
bookkeeping, the state in this module is a monotone counter of Cholesky
factorizations, used by tests and by the benchmark command to verify that
backward passes amortize their matrix inversions (one per recurrent matrix
per backward call, however long the sequence); ``ridge_pinv`` solves a
matrix or a stack of them at once. The init's own Cholesky passes are not
counted.

The LAPACK calls made here are Cholesky factorizations and LU solves, by
``ridge_pinv`` and ``orthogonal``, and the SVD behind ``spectral_norm``,
which only the diagnostics call; no run factors by QR. Every LAPACK and
BLAS call made here runs on one OpenBLAS thread, and the caller's thread
count is restored on return. The cap trades speed for predictability.
With a second thread whose worker started on the main thread's CPU, a
100 x 100 QR took 144 ms and a solve 104 ms instead of 0.34 ms and
0.27 ms, and the threaded LU touched about 0.5 MB more memory; the bits no
longer depend on ``OPENBLAS_NUM_THREADS``. When both threads run well, two
are faster for larger systems: a p = 512 ``ridge_pinv`` takes ~25 ms
capped against ~23 ms threaded, ``orthogonal`` 1.6, 16 and 103 ms capped
against 1.4, 13 and 80 ms threaded at p = 100, 256 and 512, and order-20
tp training at p = 100 ran 1.70 ms per iteration capped against 1.62 ms
(the toggle itself costs ~3 us a call; 2-core x86-64, numpy 2.4 with
OpenBLAS 0.3.31).

The thread count is process-wide. While a call here runs, numpy calls in
other Python threads also run on one OpenBLAS thread, and a count another
thread sets meanwhile is overwritten on restore; so every other numpy call
keeps the caller's threading only when one Python thread uses numpy. With
a BLAS other than OpenBLAS the cap does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading

import numpy as np


class DimensionMismatch(ValueError):
    """Operand shapes do not line up."""


class SingularSystem(ValueError):
    """The normal-equations matrix is not positive definite.

    Raised when r = 0 and W is rank deficient (or the system has overflowed
    to non-finite values, which the training loop treats as divergence).
    """


_factorizations = 0


def _openblas_thread_calls():
    """OpenBLAS's (get, set) thread-count functions, or None without OpenBLAS."""
    lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


_blas_threads = _openblas_thread_calls()
# the thread count is process-wide: the first call in flight saves it and
# the last one out restores it, whichever Python threads they run on
_blas_lock = threading.Lock()
_blas_users = 0
_blas_saved = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread; restore the count after."""
    global _blas_users, _blas_saved
    if _blas_threads is None:
        yield
        return
    get, put = _blas_threads
    with _blas_lock:
        if _blas_users == 0:
            _blas_saved = get()
            put(1)
        _blas_users += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_users -= 1
            if _blas_users == 0:
                put(_blas_saved)


def factorization_count() -> int:
    """Total Cholesky factorizations performed since import."""
    return _factorizations


@_one_blas_thread()
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


@_one_blas_thread()
def orthogonal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random (semi-)orthogonal matrix: the Q factor of a Gaussian draw.

    Q is the factor whose R has a positive diagonal, which makes the
    distribution Haar (Mezzadri 2007). It comes from shifted CholeskyQR3
    (Fukaya et al., SIAM J. Sci. Comput. 2020): each pass factors the Gram
    matrix q^T q = L L^T and replaces q by q L^{-T}. The first pass adds a
    shift s I that keeps the factorization defined up to a condition number
    near 1e15; without it CholeskyQR2 fails from ~1e9. Square outputs are
    orthogonal; rectangular ones have orthonormal rows or columns,
    whichever fits.
    """
    wide = cols > rows
    q = rng.standard_normal((cols, rows) if wide else (rows, cols))
    m, n = q.shape
    # s = 11 (m n + n (n + 1)) u ||q||_F^2, with u the unit roundoff
    shift = 11 * (m * n + n * (n + 1)) * np.finfo(np.float64).eps / 2 * np.vdot(q, q)
    for s in (shift, 0.0, 0.0):
        L = np.linalg.cholesky(q.T @ q + s * np.eye(n))
        q = np.linalg.solve(L, q.T).T
    # keep parameter tensors C-contiguous whatever the transposes hand back
    return np.ascontiguousarray(q.T if wide else q)


@_one_blas_thread()
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
