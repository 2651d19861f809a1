import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
