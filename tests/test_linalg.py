import os
import subprocess
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tprop import diagnostics, linalg, trainer
from tprop.linalg import (
    DimensionMismatch,
    SingularSystem,
    factorization_count,
    orthogonal,
    ridge_pinv,
    spectral_norm,
)


def orthogonal_init(p, seed):
    return orthogonal(np.random.default_rng(seed), p, p)


def test_ridge_pinv_identity():
    npt.assert_allclose(ridge_pinv(np.eye(3), 0.0), np.eye(3), atol=1e-12)


def test_ridge_pinv_scalar_cases():
    # (W^T W + r I)^{-1} W^T in one dimension: 2/(4+r)
    npt.assert_allclose(ridge_pinv(np.array([[2.0]]), 0.0), [[0.5]], atol=1e-14)
    npt.assert_allclose(ridge_pinv(np.array([[2.0]]), 4.0), [[0.25]], atol=1e-14)


def test_ridge_pinv_residual_against_dense_solve(rng):
    W = rng.standard_normal((5, 5))
    r = 0.1
    V = ridge_pinv(W, r)
    A = W.T @ W + r * np.eye(5)
    residual = np.linalg.norm(A @ V - W.T) / np.linalg.norm(W.T)
    assert residual <= 1e-10
    # independent oracle: generic dense solve of the normal equations
    V_oracle = np.linalg.solve(A, W.T)
    npt.assert_allclose(V, V_oracle, atol=1e-10)


def test_ridge_pinv_large_r_behaves_like_transpose_over_r(rng):
    W = rng.standard_normal((4, 4))
    r = 1e6 * spectral_norm(W) ** 2
    V = ridge_pinv(W, r)
    rel = np.linalg.norm(r * V - W.T) / np.linalg.norm(W.T)
    assert rel <= 0.01


def test_ridge_pinv_orthogonal_r0_is_transpose():
    for seed in range(5):
        Q = orthogonal_init(7, seed)
        npt.assert_allclose(ridge_pinv(Q, 0.0), Q.T, atol=1e-9)


def test_ridge_pinv_singular_raises():
    W = np.zeros((3, 3))
    with pytest.raises(SingularSystem):
        ridge_pinv(W, 0.0)
    # rank-1 matrix, W^T W has zero pivots
    W = np.outer(np.arange(1.0, 4.0), np.arange(1.0, 4.0))
    with pytest.raises(SingularSystem):
        ridge_pinv(W, 0.0)


def test_ridge_pinv_turns_a_failed_solve_into_singular_system(monkeypatch):
    # LU can meet a zero pivot in a matrix whose Cholesky check passed
    # (a trained W near 1e27 does); that is a singular system too.
    def zero_pivot(A, B):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", zero_pivot)
    with pytest.raises(SingularSystem, match="Singular matrix"):
        ridge_pinv(np.eye(3), 0.0)


def test_ridge_pinv_rejects_nonfinite():
    W = np.eye(2)
    W[0, 1] = np.nan
    with pytest.raises(ValueError):
        ridge_pinv(W, 1.0)


@pytest.mark.parametrize("r", [np.nan, np.inf, -1.0])
def test_ridge_pinv_rejects_bad_ridge_coefficient(r):
    # a bad r is a usage error, not a singular system (which reads as divergence)
    before = factorization_count()
    with pytest.raises(ValueError, match="ridge coefficient") as info:
        ridge_pinv(np.eye(3), r)
    assert not isinstance(info.value, SingularSystem)
    assert factorization_count() == before


def test_factorization_counter_increments_once_per_call():
    before = factorization_count()
    ridge_pinv(np.eye(4), 0.5)
    ridge_pinv(np.eye(4), 0.5)
    assert factorization_count() - before == 2


@pytest.mark.parametrize("p", [5, 100])
def test_ridge_pinv_on_a_stack_is_one_call_per_matrix(p):
    gen = np.random.default_rng(p)
    W = np.stack([orthogonal_init(p, 0), 1.3 * orthogonal_init(p, 1),
                  gen.standard_normal((p, p))])
    for r in (0.0, 1e-3, 1.0):
        before = factorization_count()
        V = ridge_pinv(W, r)
        assert factorization_count() - before == 3
        assert V.shape == (3, p, p)
        for k in range(3):
            assert V[k].tobytes() == ridge_pinv(W[k], r).tobytes(), (r, k)
    W[1, :, 0] = W[1, :, 1]  # rank deficient: no r = 0 inverse for the stack
    with pytest.raises(SingularSystem):
        ridge_pinv(W, 0.0)
    with pytest.raises(DimensionMismatch):
        ridge_pinv(np.ones(p), 1.0)


def qr_orthogonal(rng, rows, cols):
    """The reference draw: Householder QR of the same Gaussian, with the sign
    of R's diagonal folded into Q."""
    wide = cols > rows
    q, r = np.linalg.qr(rng.standard_normal((cols, rows) if wide else (rows, cols)))
    q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
    return q.T if wide else q


@pytest.mark.parametrize("shape", [(100, 100), (100, 6), (4, 100), (1, 1), (1, 6), (100, 1),
                                   (256, 256)])
def test_orthogonal_is_the_sign_fixed_qr_of_the_same_draw(shape):
    for seed in range(10):
        Q = orthogonal(np.random.default_rng(seed), *shape)
        assert Q.shape == shape and Q.flags.c_contiguous
        npt.assert_allclose(Q, qr_orthogonal(np.random.default_rng(seed), *shape),
                            rtol=0, atol=1e-13, err_msg=f"seed {seed}")


class _FixedDraw:
    """An rng stand-in whose standard_normal hands back one given matrix."""

    def __init__(self, a):
        self.a = a

    def standard_normal(self, shape):
        assert shape == self.a.shape
        return self.a.copy()


@pytest.mark.parametrize("rows, cols", [(100, 100), (100, 6), (6, 100)])
def test_orthogonal_stays_orthonormal_on_an_ill_conditioned_draw(rows, cols):
    # plain CholeskyQR2 loses the Cholesky factorization from a condition
    # number near 1e9; the first pass's shift keeps it up to ~1e15
    gen = np.random.default_rng(0)
    m, n = max(rows, cols), min(rows, cols)
    U = np.linalg.qr(gen.standard_normal((m, n)))[0]
    V = np.linalg.qr(gen.standard_normal((n, n)))[0]
    a = U @ np.diag(np.logspace(0, -12, n)) @ V.T
    assert np.linalg.cond(a) > 0.99e12
    Q = orthogonal(_FixedDraw(a), rows, cols)
    gram = Q.T @ Q if rows >= cols else Q @ Q.T
    npt.assert_allclose(gram, np.eye(n), rtol=0, atol=1e-14)


def test_runs_and_checks_never_factor_by_qr(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for model in ("rnn", "gru"):
        cfg = trainer.ExperimentConfig(T=12, model=model, hidden=8, batch=4, iters=2,
                                       eval_every=0)
        assert len(trainer.train(cfg).log.losses) == 2
    diagnostics._tanh_instance(0)


def test_orthogonal_init_p1_is_sign():
    for seed in range(10):
        Q = orthogonal_init(1, seed)
        assert Q.shape == (1, 1)
        npt.assert_allclose(abs(Q[0, 0]), 1.0, atol=1e-12)


def test_orthogonal_init_p100():
    Q = orthogonal_init(100, 3)
    npt.assert_allclose(Q.T @ Q, np.eye(100), atol=1e-10)


def test_orthogonal_init_deterministic():
    a = orthogonal_init(16, 42)
    b = orthogonal_init(16, 42)
    assert a.tobytes() == b.tobytes()


def test_orthogonal_init_determinant_pm1():
    for seed in range(8):
        det = np.linalg.det(orthogonal_init(6, seed))
        assert abs(abs(det) - 1.0) <= 1e-8


@given(p=st.integers(min_value=1, max_value=12), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_orthogonal_init_property(p, seed):
    Q = orthogonal_init(p, seed)
    assert np.linalg.norm(Q.T @ Q - np.eye(p)) <= 1e-10


@given(seed=st.integers(min_value=0, max_value=10_000), r=st.floats(min_value=1e-3, max_value=1e3))
def test_ridge_pinv_normal_equation_property(seed, r):
    W = np.random.default_rng(seed).standard_normal((4, 4))
    V = ridge_pinv(W, r)
    A = W.T @ W + r * np.eye(4)
    assert np.linalg.norm(A @ V - W.T) <= 1e-10 * max(1.0, np.linalg.norm(W.T))


def test_dimension_checks():
    with pytest.raises(DimensionMismatch):
        ridge_pinv(np.ones(3), 1.0)
    with pytest.raises(DimensionMismatch):
        spectral_norm(np.ones((2, 3, 4)))


def test_spectral_norm_diagonal():
    npt.assert_allclose(spectral_norm(np.diag([3.0, -5.0])), 5.0, atol=1e-9)


def test_spectral_norm_against_svd_oracle(rng):
    A = rng.standard_normal((8, 8))
    npt.assert_allclose(spectral_norm(A), np.linalg.svd(A, compute_uv=False)[0], rtol=1e-6)
    # top right-singular vectors orthogonal to the all-ones vector
    c = np.sqrt(0.5)
    R = np.array([[c, -c], [c, c]])  # 45 degree rotation
    for A, want in ((np.array([[1.0, -1.0], [1.0, -1.0]]), 2.0),
                    (R @ np.diag([1.0, 5.0]) @ R.T, 5.0)):
        npt.assert_allclose(spectral_norm(A), want, rtol=1e-12)


def _child(code, env):
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


_BITS = """
import hashlib
import numpy as np
from tprop.linalg import orthogonal, ridge_pinv, spectral_norm
gen = np.random.default_rng(5)
outs = {
    "ridge_pinv p=100": ridge_pinv(gen.standard_normal((100, 100)), 1.0),
    "ridge_pinv p=256": ridge_pinv(gen.standard_normal((256, 256)), 0.1),
    "ridge_pinv (3, 100, 100)": ridge_pinv(gen.standard_normal((3, 100, 100)), 1.0),
    "orthogonal(100, 100)": orthogonal(np.random.default_rng(3), 100, 100),
    "spectral_norm": np.float64(spectral_norm(gen.standard_normal((100, 100)))),
}
for name, out in outs.items():
    print(name, hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_bits_do_not_depend_on_openblas_num_threads(env_with_src):
    one, two = (_child(_BITS, {**env_with_src, "OPENBLAS_NUM_THREADS": n}).splitlines()
                for n in ("1", "2"))
    assert len(one) == 5
    assert one == two


@pytest.fixture
def blas_threads():
    """OpenBLAS's thread count, set to 2 for the test and put back after."""
    if linalg._blas_threads is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, put = linalg._blas_threads
    before = get()
    put(2)
    yield get
    put(before)


def test_every_linalg_call_runs_on_one_blas_thread_and_restores_the_count(
        blas_threads, monkeypatch):
    seen = []
    for name in ("qr", "cholesky", "solve", "norm"):
        def spy(*args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            seen.append((_name, blas_threads()))
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    W = orthogonal_init(6, 0)
    assert blas_threads() == 2
    ridge_pinv(W, 1.0)
    ridge_pinv(np.stack([W, W]), 1.0)
    spectral_norm(W)
    assert blas_threads() == 2
    assert "qr" not in {name for name, _ in seen}
    # cholesky and solve, three times for the init and once for each ridge_pinv; norm
    assert [count for _, count in seen] == [1] * 11
    with pytest.raises(SingularSystem):
        ridge_pinv(np.zeros((3, 3)), 0.0)
    assert blas_threads() == 2
    for bad in (lambda: ridge_pinv(W, -1.0), lambda: ridge_pinv(np.ones(3), 1.0),
                lambda: spectral_norm(np.ones((2, 2, 2)))):
        with pytest.raises(ValueError):
            bad()
        assert blas_threads() == 2


def test_nested_caps_restore_the_outer_count(blas_threads):
    with linalg._one_blas_thread():
        assert blas_threads() == 1
        with linalg._one_blas_thread():
            ridge_pinv(np.eye(3), 1.0)
            assert blas_threads() == 1
        assert blas_threads() == 1
        with pytest.raises(SingularSystem):
            ridge_pinv(np.zeros((3, 3)), 0.0)
        assert blas_threads() == 1
    assert blas_threads() == 2


def test_concurrent_calls_restore_the_count(blas_threads):
    # the count is process-wide, so overlapping calls from Python threads
    # must not leave the cap behind when the last of them returns
    W = orthogonal_init(5, 0)
    errors = []

    def work():
        try:
            for _ in range(300):
                ridge_pinv(W, 1.0)
                orthogonal(np.random.default_rng(0), 5, 5)
        except Exception as exc:  # reported below by the test thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert errors == []
    assert blas_threads() == 2


_STALL = """
import os, statistics, time
import numpy as np
from tprop.linalg import orthogonal, ridge_pinv
cpu = min(os.sched_getaffinity(0))
for tid in os.listdir("/proc/self/task"):
    os.sched_setaffinity(int(tid), {cpu})
rng = np.random.default_rng(0)
W = orthogonal(rng, 100, 100)
for call in (lambda: orthogonal(rng, 100, 100), lambda: ridge_pinv(W, 1.0)):
    ms = []
    for _ in range(5):
        t = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t))
    print(statistics.median(ms))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or not os.path.isdir("/proc/self/task"),
                    reason="needs per-thread CPU affinity")
def test_p100_calls_do_not_stall_with_every_thread_on_one_cpu(env_with_src):
    # A second OpenBLAS thread sharing the main thread's CPU made a 100 x 100
    # ridge solve take ~104 ms (and a QR ~144 ms); on one thread a solve
    # takes ~0.5 ms, and the init's three Cholesky passes and solves ~2 ms.
    out = _child(_STALL, {**env_with_src, "OPENBLAS_NUM_THREADS": "2"})
    init_ms, ridge_ms = map(float, out.split())
    assert init_ms < 20, init_ms
    assert ridge_ms < 20, ridge_ms


def test_ridge_pinv_refuses_a_non_finite_solve(monkeypatch):
    # ridge_pinv's last check: a solve that hands back inf is a singular system
    W = np.eye(3) + 0.1
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: np.full(np.shape(B), np.inf))
    before = factorization_count()
    with pytest.raises(SingularSystem, match="non-finite entries"):
        ridge_pinv(W, 1.0)
    assert factorization_count() == before + 1


def test_spectral_norm_of_an_empty_matrix_is_zero():
    for shape in ((0, 3), (3, 0), (0,)):
        assert spectral_norm(np.zeros(shape)) == 0.0
