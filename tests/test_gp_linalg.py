"""Tests for repro.gp.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.linalg import (
    cholesky_append,
    cholesky_solve,
    cholesky_update,
    jittered_cholesky,
    log_det_from_cholesky,
    solve_lower,
)


def random_spd(n, rng, eig_floor=1e-3):
    A = rng.standard_normal((n, n))
    return A @ A.T + eig_floor * np.eye(n)


class TestJitteredCholesky:
    def test_spd_no_jitter(self):
        rng = np.random.default_rng(0)
        K = random_spd(6, rng)
        L, jitter = jittered_cholesky(K)
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, K, atol=1e-10)

    def test_singular_gets_jitter(self):
        v = np.array([[1.0, 2.0, 3.0]])
        K = v.T @ v  # rank 1, not PD
        L, jitter = jittered_cholesky(K)
        assert jitter > 0.0
        np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(3), atol=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            jittered_cholesky(np.array([[np.nan]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            jittered_cholesky(np.zeros((2, 3)))

    def test_hopeless_matrix_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            jittered_cholesky(np.array([[-1e12, 0.0], [0.0, -1e12]]))


class TestSolves:
    def test_cholesky_solve_matches_direct(self):
        rng = np.random.default_rng(1)
        K = random_spd(5, rng)
        b = rng.standard_normal(5)
        L, _ = jittered_cholesky(K)
        np.testing.assert_allclose(cholesky_solve(L, b), np.linalg.solve(K, b), atol=1e-8)

    def test_solve_lower(self):
        rng = np.random.default_rng(2)
        K = random_spd(4, rng)
        L, _ = jittered_cholesky(K)
        b = rng.standard_normal(4)
        np.testing.assert_allclose(L @ solve_lower(L, b), b, atol=1e-10)

    def test_log_det(self):
        rng = np.random.default_rng(3)
        K = random_spd(5, rng)
        L, _ = jittered_cholesky(K)
        expected = np.linalg.slogdet(K)[1]
        assert log_det_from_cholesky(L) == pytest.approx(expected, rel=1e-10)


class TestCholeskyUpdate:
    def test_matches_full_factorization(self):
        rng = np.random.default_rng(4)
        K = random_spd(6, rng)
        L_small, _ = jittered_cholesky(K[:5, :5])
        L_updated = cholesky_update(L_small, K[:5, 5], K[5, 5])
        L_full, _ = jittered_cholesky(K)
        np.testing.assert_allclose(L_updated @ L_updated.T, L_full @ L_full.T, atol=1e-8)

    def test_from_empty(self):
        L = cholesky_update(np.zeros((0, 0)), np.zeros(0), 4.0)
        assert L.shape == (1, 1)
        assert L[0, 0] == pytest.approx(2.0)

    def test_degenerate_corner_clamped(self):
        # New point identical to existing one: Schur complement is ~0.
        K = np.array([[1.0]])
        L, _ = jittered_cholesky(K)
        L2 = cholesky_update(L, np.array([1.0]), 1.0)
        assert np.isfinite(L2).all()
        assert L2[1, 1] > 0

    def test_wrong_cross_length(self):
        L, _ = jittered_cholesky(np.eye(3))
        with pytest.raises(ValueError):
            cholesky_update(L, np.zeros(2), 1.0)


class TestCholeskyAppend:
    def test_rank_k_matches_full_factorization(self):
        rng = np.random.default_rng(5)
        K = random_spd(9, rng)
        L_small = np.linalg.cholesky(K[:6, :6])
        L_big = cholesky_append(L_small, K[:6, 6:], K[6:, 6:])
        np.testing.assert_allclose(L_big, np.linalg.cholesky(K), atol=1e-10)

    def test_accepts_1d_cross_for_rank1(self):
        rng = np.random.default_rng(6)
        K = random_spd(5, rng)
        L_small = np.linalg.cholesky(K[:4, :4])
        L_big = cholesky_append(L_small, K[:4, 4], K[4:, 4:])
        np.testing.assert_allclose(L_big, np.linalg.cholesky(K), atol=1e-10)

    def test_strict_raise_on_singular_schur(self):
        # Exact arithmetic: corner - B^T B == 0, so the strict append must
        # raise rather than clamp (the session's fallback depends on this).
        lower = np.eye(2)
        cross = np.array([[1.0], [0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_append(lower, cross, np.array([[1.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cholesky_append(np.eye(3), np.zeros((2, 1)), np.eye(1))
        with pytest.raises(ValueError):
            cholesky_append(np.eye(3), np.zeros((3, 2)), np.eye(1))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 7), k=st.integers(1, 3), seed=st.integers(0, 10_000)
)
def test_property_rank_k_append_matches_full(n, k, seed):
    rng = np.random.default_rng(seed)
    K = random_spd(n + k, rng, eig_floor=1e-2)
    L = np.linalg.cholesky(K[:n, :n])
    L_big = cholesky_append(L, K[:n, n:], K[n:, n:])
    np.testing.assert_allclose(L_big, np.linalg.cholesky(K), atol=1e-6)
    # Appending never touches the leading block: it is the original factor,
    # bit for bit.
    np.testing.assert_array_equal(L_big[:n, :n], L)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_property_jittered_cholesky_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    K = random_spd(n, rng, eig_floor=1e-2)
    L, jitter = jittered_cholesky(K)
    np.testing.assert_allclose(L @ L.T, K + jitter * np.eye(n), atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 7), seed=st.integers(0, 10_000))
def test_property_incremental_update_consistent(n, seed):
    rng = np.random.default_rng(seed)
    K = random_spd(n + 1, rng, eig_floor=1e-2)
    L, _ = jittered_cholesky(K[:n, :n])
    L_up = cholesky_update(L, K[:n, n], K[n, n])
    np.testing.assert_allclose(L_up @ L_up.T, K, atol=1e-6)
