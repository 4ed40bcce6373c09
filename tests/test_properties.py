"""Property-based sweeps over the paper's core invariants.

Each test drives one mathematical invariant through ``N_CASES`` (>= 200)
randomized cases from seeded :class:`numpy.random.Generator` streams —
deterministic, so a failure reproduces from its case index alone:

* Eq. 8 — the randomized acquisition weight ``w = kappa/(kappa+1)``,
  ``kappa ~ U[0, lam]``, follows the exact CDF ``F(t) = t / ((1-t) lam)``
  on ``[0, lam/(lam+1)]`` and concentrates above 0.5 for ``lam = 6``
  (``P(w > 0.5) = 5/6``) — the exploration-heavy density of Fig. 2.
* Eq. 9 — hallucinating pending points never inflates the posterior
  spread (``sigma_hat <= sigma``) and collapses it to the noise level at
  the busy points, while the mean surface is untouched (kriging believer).
* GP regression is symmetric in its training data: permuting the
  observations leaves the posterior unchanged.
* The incremental Cholesky algebra (border updates and block appends)
  reproduces a fresh factorization of the assembled matrix, including
  near-singular inputs where the jitter policy engages.
* Pending-point policies (``repro.core.pending``): the local-penalisation
  factor lies in ``(0, 1]``, is non-decreasing in the distance to the
  pending point, and tends to 1 far away; the pessimistic extension never
  inflates the posterior spread, never raises the acquisition at a lone
  pending point above its no-pending baseline, and degenerates to the
  kriging believer at ``beta=0``; the standard policy is a strict no-op
  for every pending set.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.acquisition import EASYBO_LAMBDA, sample_easybo_weight
from repro.core.pending import (
    LocalPenalisationPolicy,
    PessimisticPolicy,
    StandardPolicy,
)
from repro.core.surrogate import HallucinatedView
from repro.gp import linalg
from repro.gp.gp import GaussianProcess
from repro.gp.kernels import SquaredExponential

pytestmark = pytest.mark.property

#: Randomized cases per invariant (the ISSUE floor is 200).
N_CASES = 200


def _random_gp(rng, *, noise_floor=1e-6):
    """A fitted GP with randomized shape, scales, and noise."""
    dim = int(rng.integers(1, 5))
    n = int(rng.integers(2, 13))
    kernel = SquaredExponential(
        dim,
        lengthscales=rng.uniform(0.3, 2.0, size=dim),
        variance=float(rng.uniform(0.5, 2.0)),
    )
    noise = float(10.0 ** rng.uniform(np.log10(noise_floor), -2.0))
    X = rng.uniform(-1.0, 1.0, size=(n, dim))
    y = rng.standard_normal(n)
    model = GaussianProcess(kernel=kernel, noise_variance=noise).fit(X, y)
    return model, X, y


# --------------------------------------------------------------- Eq. 8 weight
class TestEq8WeightDensity:
    def test_support_and_exact_cdf(self):
        """Pooled empirical CDF matches ``F(t) = t/((1-t) lam)`` (DKW bound)."""
        lam = EASYBO_LAMBDA
        w_max = lam / (lam + 1.0)
        pooled = []
        for case in range(N_CASES):
            rng = np.random.default_rng(10_000 + case)
            ws = np.array([sample_easybo_weight(rng) for _ in range(20)])
            assert np.all(ws >= 0.0) and np.all(ws <= w_max + 1e-15), case
            pooled.append(ws)
        w = np.sort(np.concatenate(pooled))
        n = w.size  # 4000
        # Dvoretzky–Kiefer–Wolfowitz: sup |F_n - F| > eps w.p. <= 2 e^{-2 n eps^2};
        # delta = 1e-6 makes a false failure essentially impossible.
        eps = np.sqrt(np.log(2.0 / 1e-6) / (2.0 * n))
        ts = np.linspace(0.01, w_max - 0.01, 101)
        exact = np.minimum(ts / ((1.0 - ts) * lam), 1.0)
        empirical = np.searchsorted(w, ts, side="right") / n
        assert np.max(np.abs(empirical - exact)) <= eps

        # Exploration concentration (paper Fig. 2): P(w > 1/2) = 5/6 at lam=6.
        frac_explore = float(np.mean(w > 0.5))
        assert abs(frac_explore - 5.0 / 6.0) <= eps
        assert frac_explore > 0.5

    def test_randomized_lambda_median(self):
        """For random ``lam`` the sample median sits at ``lam/(lam+2)``."""
        for case in range(N_CASES):
            rng = np.random.default_rng(20_000 + case)
            lam = float(rng.uniform(0.5, 10.0))
            ws = np.array([sample_easybo_weight(rng, lam=lam) for _ in range(400)])
            assert np.all(ws >= 0.0)
            assert np.all(ws <= lam / (lam + 1.0) + 1e-15)
            # Map the empirical median through the exact CDF: it must land
            # near 1/2 (std ~ 0.025 at 400 samples; 0.15 is a ~6-sigma gate).
            median = float(np.median(ws))
            cdf_at_median = median / ((1.0 - median) * lam)
            assert abs(cdf_at_median - 0.5) <= 0.15, (case, lam, median)

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            sample_easybo_weight(np.random.default_rng(0), lam=0.0)


# ------------------------------------------------------- Eq. 9 hallucination
class TestEq9Hallucination:
    def test_sigma_hat_never_inflates_and_collapses_at_busy_points(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(30_000 + case)
            model, X, _ = _random_gp(rng)
            k = int(rng.integers(1, 4))
            X_busy = rng.uniform(-1.0, 1.0, size=(k, model.dim))
            X_test = np.vstack(
                [X_busy, rng.uniform(-1.0, 1.0, size=(8, model.dim))]
            )
            mu, sigma = model.predict(X_test)

            view = HallucinatedView(model, X_busy)
            mu_hat, sigma_hat = view.predict(X_test)

            # Eq. 9: the hallucinated spread never exceeds the plain one.
            assert np.all(sigma_hat <= sigma + 1e-8), case
            # Kriging believer: the mean surface is untouched.
            np.testing.assert_allclose(mu_hat, mu, atol=1e-10)
            # The spread collapses to the noise level at the busy points
            # (posterior variance at an observed input is <= sigma_n^2).
            noise_std = np.sqrt(model.noise_variance)
            assert np.all(sigma_hat[:k] <= noise_std + 1e-7), case

    def test_view_matches_condition_on_pending(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(40_000 + case)
            model, _, _ = _random_gp(rng)
            k = int(rng.integers(1, 4))
            X_busy = rng.uniform(-1.0, 1.0, size=(k, model.dim))
            X_test = rng.uniform(-1.0, 1.0, size=(8, model.dim))

            view = HallucinatedView(model, X_busy)
            rebuilt = model.condition_on_pending(X_busy)
            mu_v, sigma_v = view.predict(X_test)
            mu_r, sigma_r = rebuilt.predict(X_test)
            np.testing.assert_allclose(mu_v, mu_r, atol=1e-6)
            np.testing.assert_allclose(sigma_v, sigma_r, atol=1e-6)


# ------------------------------------------------- permutation invariance
class TestPosteriorPermutationInvariance:
    def test_permuting_training_data_leaves_posterior_unchanged(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(50_000 + case)
            # Noise >= 1e-4 keeps both factorizations well conditioned so
            # the two round-off paths agree to the 1e-8 gate.
            model, X, y = _random_gp(rng, noise_floor=1e-4)
            perm = rng.permutation(X.shape[0])
            permuted = GaussianProcess(
                kernel=model.kernel.copy(), noise_variance=model.noise_variance
            ).fit(X[perm], y[perm])

            X_test = rng.uniform(-1.0, 1.0, size=(10, model.dim))
            mu_a, sigma_a = model.predict(X_test)
            mu_b, sigma_b = permuted.predict(X_test)
            np.testing.assert_allclose(mu_a, mu_b, atol=1e-8)
            np.testing.assert_allclose(sigma_a, sigma_b, atol=1e-8)


# ---------------------------------------------- pending-point policies
class TestLocalPenalisationFactor:
    def test_factor_in_unit_interval_and_one_far_away(self):
        """``phi_j`` lies in ``(0, 1]``, grows with distance, and saturates
        to 1 outside the Lipschitz ball around the pending point."""
        factor = LocalPenalisationPolicy.penalisation_factor
        for case in range(N_CASES):
            rng = np.random.default_rng(80_000 + case)
            dim = int(rng.integers(1, 6))
            u_j = rng.uniform(size=dim)
            mu_j = float(rng.normal())
            sigma_j = float(10.0 ** rng.uniform(-3, 0.5))
            lipschitz = float(10.0 ** rng.uniform(-2, 2))
            best = mu_j + float(rng.uniform(0.0, 3.0))  # incumbent >= mean

            U = rng.uniform(size=(32, dim))
            phi = factor(U, u_j, mu_j, sigma_j, lipschitz, best)
            assert phi.shape == (32,)
            assert np.all(phi > 0.0) and np.all(phi <= 1.0), case

            # Monotone in the distance to the pending point: scoring the
            # same direction at growing radii never shrinks the factor.
            direction = rng.standard_normal(dim)
            direction /= np.linalg.norm(direction)
            radii = np.sort(rng.uniform(0.0, 5.0, size=16))
            ray = u_j[None, :] + radii[:, None] * direction[None, :]
            along = factor(ray, u_j, mu_j, sigma_j, lipschitz, best)
            assert np.all(np.diff(along) >= -1e-12), case

            # Far outside the ball (z >= 8) the penalty vanishes: phi ~ 1.
            r_far = ((best - mu_j) + 8.0 * np.sqrt(2.0) * sigma_j) / lipschitz
            far = u_j[None, :] + (r_far + 1.0) * direction[None, :]
            assert factor(far, u_j, mu_j, sigma_j, lipschitz, best)[0] >= 1 - 1e-9

            # At the pending point itself the factor is a real penalty
            # (< 1/2 whenever the incumbent strictly dominates the mean).
            at = factor(u_j[None, :], u_j, mu_j, sigma_j, lipschitz, best)
            if best > mu_j:
                assert at[0] <= 0.5, case


class TestPessimisticExtension:
    def test_lone_pending_point_never_beats_baseline(self):
        """Eq. 8 acquisition at a single pending point: pessimistic model
        value <= no-pending value, for random ``beta`` and weight ``w``."""
        for case in range(N_CASES):
            rng = np.random.default_rng(90_000 + case)
            model, _, _ = _random_gp(rng)
            policy = PessimisticPolicy(beta=float(rng.uniform(0.0, 2.0)))
            u = rng.uniform(-1.0, 1.0, size=(1, model.dim))
            extended = policy.condition_pessimistic(model, u)
            mu0, sigma0 = model.predict(u)
            mu1, sigma1 = extended.predict(u)
            w = float(rng.uniform(0.0, 1.0))
            base = (1.0 - w) * mu0[0] + w * sigma0[0]
            pess = (1.0 - w) * mu1[0] + w * sigma1[0]
            assert pess <= base + 1e-8, case

    def test_spread_never_inflates_for_any_pending_set(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(91_000 + case)
            model, _, _ = _random_gp(rng)
            policy = PessimisticPolicy(beta=float(rng.uniform(0.0, 2.0)))
            k = int(rng.integers(1, 4))
            U_pending = rng.uniform(-1.0, 1.0, size=(k, model.dim))
            extended = policy.condition_pessimistic(model, U_pending)
            X_test = np.vstack(
                [U_pending, rng.uniform(-1.0, 1.0, size=(8, model.dim))]
            )
            _, sigma = model.predict(X_test)
            _, sigma_hat = extended.predict(X_test)
            assert np.all(sigma_hat <= sigma + 1e-8), case

    def test_beta_zero_degenerates_to_kriging_believer(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(92_000 + case)
            model, _, _ = _random_gp(rng, noise_floor=1e-4)
            k = int(rng.integers(1, 4))
            U_pending = rng.uniform(-1.0, 1.0, size=(k, model.dim))
            extended = PessimisticPolicy(beta=0.0).condition_pessimistic(
                model, U_pending
            )
            believer = model.condition_on_pending(U_pending)
            X_test = rng.uniform(-1.0, 1.0, size=(8, model.dim))
            mu_p, sigma_p = extended.predict(X_test)
            mu_b, sigma_b = believer.predict(X_test)
            np.testing.assert_allclose(mu_p, mu_b, atol=1e-7)
            np.testing.assert_allclose(sigma_p, sigma_b, atol=1e-7)

    def test_rejects_negative_beta(self):
        with pytest.raises(ValueError):
            PessimisticPolicy(beta=-0.1)


class TestStandardPolicyIsNoOp:
    def test_invariant_to_the_pending_set(self):
        """The standard policy must not look at the pending matrix at all:
        same model object, same acquisition object, for any pending set."""

        class SessionStub:
            def __init__(self, model):
                self._model = model

            def require_model(self):
                return self._model

        policy = StandardPolicy()
        for case in range(N_CASES):
            rng = np.random.default_rng(93_000 + case)
            model, _, _ = _random_gp(rng)
            session = SessionStub(model)
            k = int(rng.integers(0, 5))
            X_pending = rng.uniform(-1.0, 1.0, size=(k, model.dim))
            assert policy.model(session, X_pending) is model, case
            acquisition = object()
            wrapped = policy.wrap(
                session, model, acquisition, X_pending, rng=rng
            )
            assert wrapped is acquisition, case


# --------------------------------------------------- incremental Cholesky
def _random_spd(rng, n, *, ridge):
    A = rng.standard_normal((n, n))
    return A @ A.T + ridge * np.eye(n)


def _assert_factors(lower, matrix, *, atol=1e-8):
    """The factor reconstructs the matrix (factor uniqueness up to signs
    makes comparing ``L L^T`` the robust check)."""
    scale = max(1.0, float(np.max(np.abs(matrix))))
    np.testing.assert_allclose(lower @ lower.T, matrix, atol=atol * scale)
    assert np.all(np.diag(lower) > 0)


class TestIncrementalCholesky:
    def test_updates_match_fresh_factorization(self):
        for case in range(N_CASES):
            rng = np.random.default_rng(60_000 + case)
            n = int(rng.integers(2, 10))
            K = _random_spd(rng, n, ridge=float(rng.uniform(0.05, 1.0)))
            lower, jitter = linalg.jittered_cholesky(K)
            assert jitter == 0.0
            _assert_factors(lower, K)

            # Single border update vs the bordered matrix refactorized.
            cross = K @ rng.uniform(-0.3, 0.3, size=n)
            corner = float(cross @ np.linalg.solve(K, cross) + rng.uniform(0.1, 1.0))
            bordered = np.block(
                [[K, cross[:, None]], [cross[None, :], np.array([[corner]])]]
            )
            up = linalg.cholesky_update(lower, cross, corner)
            _assert_factors(up, bordered)

            # Block append of k columns vs the assembled matrix.
            k = int(rng.integers(1, 4))
            big = _random_spd(rng, n + k, ridge=float(rng.uniform(0.05, 1.0)))
            base_lower, _ = linalg.jittered_cholesky(big[:n, :n])
            appended = linalg.cholesky_append(
                base_lower, big[:n, n:], big[n:, n:]
            )
            _assert_factors(appended, big)
            # The append never touches the leading block.
            np.testing.assert_array_equal(appended[:n, :n], base_lower)

    def test_near_singular_jitter_and_append_failure(self):
        engaged = 0
        for case in range(N_CASES):
            rng = np.random.default_rng(70_000 + case)
            n = int(rng.integers(2, 8))
            # Exactly rank-deficient Gram matrix (a duplicated point, the
            # way a GP covariance goes singular): the plain factorization
            # fails, so the jitter policy must engage and stay faithful to
            # K + jitter I.
            A = rng.standard_normal((n, max(1, n - 1)))
            K = A @ A.T
            K[-1] = K[0]
            K[:, -1] = K[:, 0]
            K[-1, -1] = K[0, 0]
            lower, jitter = linalg.jittered_cholesky(K)
            engaged += jitter > 0.0
            _assert_factors(lower, K + jitter * np.eye(n), atol=1e-7)

            # Appending a border whose Schur complement is not positive
            # definite (a corner smaller than the part the existing points
            # already explain) must refuse rather than corrupt the factor.
            cross = K[:, :1]
            explained = linalg.solve_lower(lower, cross)
            corner = explained.T @ explained - 10.0 * max(jitter, 1e-12)
            with pytest.raises(np.linalg.LinAlgError):
                linalg.cholesky_append(lower, cross, corner)
        # The sweep must actually exercise the jitter path, not skirt it.
        assert engaged >= N_CASES // 10
