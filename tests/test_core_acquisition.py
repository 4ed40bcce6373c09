"""Tests for acquisition functions and the EasyBO weight sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisition import (
    EASYBO_LAMBDA,
    ExpectedImprovement,
    HighCoveragePenalty,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    WeightedAcquisition,
    norm_pdf,
    pbo_weights,
    sample_easybo_weight,
)
from repro.gp import GaussianProcess


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(30, 2))
    y = np.sin(5 * X[:, 0]) + X[:, 1]
    return GaussianProcess(2, noise_variance=1e-6).fit(X, y)


class TestNormal:
    def test_matches_scipy_stats_bit_for_bit(self):
        from scipy import stats
        from scipy.special import ndtr

        z = np.concatenate(
            [[np.inf, -np.inf, np.nan, 40.0, -40.0, 0.0, -0.0], np.linspace(-45, 45, 9001)]
        )
        assert np.array_equal(ndtr(z), stats.norm.cdf(z), equal_nan=True)
        assert np.array_equal(norm_pdf(z), stats.norm.pdf(z), equal_nan=True)


class TestUCB:
    def test_formula(self, model):
        X = np.random.default_rng(1).uniform(size=(5, 2))
        mu, sigma = model.predict(X)
        np.testing.assert_allclose(
            UpperConfidenceBound(2.5)(model, X), mu + 2.5 * sigma
        )

    def test_kappa_zero_is_mean(self, model):
        X = np.random.default_rng(2).uniform(size=(4, 2))
        np.testing.assert_allclose(
            UpperConfidenceBound(0.0)(model, X), model.predict(X, return_std=False)
        )

    def test_rejects_negative_kappa(self):
        with pytest.raises(ValueError):
            UpperConfidenceBound(-1.0)


class TestEI:
    def test_zero_when_certain_and_worse(self, model):
        """EI at a training point below the incumbent is ~0."""
        x_train = model.X[:1]
        y_train = model.y[0]
        ei = ExpectedImprovement(best_y=y_train + 5.0)
        assert ei(model, x_train)[0] == pytest.approx(0.0, abs=1e-6)

    def test_positive_everywhere(self, model):
        X = np.random.default_rng(3).uniform(size=(20, 2))
        ei = ExpectedImprovement(best_y=float(model.y.max()))
        assert np.all(ei(model, X) >= 0)

    def test_grows_with_uncertainty(self, model):
        best = float(model.y.max())
        ei = ExpectedImprovement(best_y=best)
        inside = ei(model, model.X[:1])  # training point: sigma ~ 0
        outside = ei(model, np.array([[5.0, 5.0]]))  # far away: sigma ~ 1
        assert outside[0] > inside[0]

    def test_closed_form_against_monte_carlo(self, model):
        rng = np.random.default_rng(4)
        x = np.array([[0.5, 0.5]])
        best = float(model.y.max()) - 0.3
        mu, sigma = model.predict(x)
        samples = rng.normal(mu[0], sigma[0], size=200_000)
        mc = np.mean(np.maximum(samples - best, 0.0))
        assert ExpectedImprovement(best)(model, x)[0] == pytest.approx(mc, rel=0.05)


class TestPI:
    def test_bounded_01(self, model):
        X = np.random.default_rng(5).uniform(size=(20, 2))
        pi = ProbabilityOfImprovement(best_y=0.0)
        values = pi(model, X)
        assert np.all((values >= 0) & (values <= 1))

    def test_high_when_mean_far_above(self, model):
        pi = ProbabilityOfImprovement(best_y=-100.0)
        assert pi(model, model.X[:1])[0] == pytest.approx(1.0, abs=1e-9)


class TestWeighted:
    def test_w0_is_mean(self, model):
        X = np.random.default_rng(6).uniform(size=(4, 2))
        np.testing.assert_allclose(
            WeightedAcquisition(0.0)(model, X), model.predict(X, return_std=False)
        )

    def test_w1_is_sigma(self, model):
        X = np.random.default_rng(7).uniform(size=(4, 2))
        _, sigma = model.predict(X)
        np.testing.assert_allclose(WeightedAcquisition(1.0)(model, X), sigma)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            WeightedAcquisition(1.5)
        with pytest.raises(ValueError):
            WeightedAcquisition(-0.1)


class TestEasyBOWeight:
    def test_range(self):
        rng = np.random.default_rng(0)
        ws = [sample_easybo_weight(rng) for _ in range(2000)]
        w_max = EASYBO_LAMBDA / (EASYBO_LAMBDA + 1.0)
        assert all(0.0 <= w <= w_max for w in ws)

    def test_density_increases_toward_one(self):
        """Fig. 2: w mass concentrates near the top of its range."""
        rng = np.random.default_rng(1)
        ws = np.array([sample_easybo_weight(rng) for _ in range(20_000)])
        w_max = EASYBO_LAMBDA / (EASYBO_LAMBDA + 1.0)
        low = np.mean(ws < 0.5 * w_max)
        high = np.mean(ws > 0.5 * w_max)
        assert high > 2 * low

    def test_analytic_cdf(self):
        """P(w <= t) = (t/(1-t)) / lambda for the transformed uniform."""
        rng = np.random.default_rng(2)
        ws = np.array([sample_easybo_weight(rng, lam=6.0) for _ in range(50_000)])
        for t in (0.3, 0.5, 0.7):
            expected = (t / (1 - t)) / 6.0
            assert np.mean(ws <= t) == pytest.approx(expected, abs=0.01)

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            sample_easybo_weight(None, lam=0.0)


class TestPboWeights:
    def test_grid(self):
        np.testing.assert_allclose(pbo_weights(5), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_single(self):
        np.testing.assert_allclose(pbo_weights(1), [0.5])

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            pbo_weights(0)


class TestHighCoveragePenalty:
    def test_zero_without_history(self):
        hc = HighCoveragePenalty(2)
        X = np.random.default_rng(0).uniform(size=(5, 2))
        np.testing.assert_array_equal(hc(0, X), 0.0)

    def test_large_near_recorded_point(self):
        hc = HighCoveragePenalty(2, d=0.1)
        x_prev = np.array([0.5, 0.5])
        hc.record(0, x_prev)
        near = hc(0, x_prev.reshape(1, -1) + 0.01)
        far = hc(0, np.array([[0.95, 0.95]]))
        assert near[0] > 1e10
        assert far[0] == pytest.approx(0.0, abs=1e-6)

    def test_slots_independent(self):
        hc = HighCoveragePenalty(2, d=0.1)
        hc.record(0, np.array([0.5, 0.5]))
        assert hc(1, np.array([[0.5, 0.5]]))[0] == 0.0

    def test_history_capped_at_five(self):
        hc = HighCoveragePenalty(1, d=0.1)
        for i in range(8):
            hc.record(0, np.array([float(i)]))
        assert len(hc._history[0]) == 5

    def test_no_overflow(self):
        hc = HighCoveragePenalty(2, d=0.5)
        hc.record(0, np.array([0.5, 0.5]))
        values = hc(0, np.array([[0.5, 0.5]]))  # zero distance
        assert np.isfinite(values).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            HighCoveragePenalty(0)
        with pytest.raises(ValueError):
            HighCoveragePenalty(2, d=-1.0)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.5, 20.0), seed=st.integers(0, 500))
def test_property_weight_in_closed_form_range(lam, seed):
    w = sample_easybo_weight(np.random.default_rng(seed), lam=lam)
    assert 0.0 <= w <= lam / (lam + 1.0)
