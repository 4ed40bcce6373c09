"""Tests for the surrogate session."""

import numpy as np
import pytest

from repro.core.acquisition import WeightedAcquisition
from repro.core.surrogate import SurrogateSession

BOUNDS = np.array([[0.0, 10.0], [-1.0, 1.0]])


def make_session(n=25, seed=0):
    rng = np.random.default_rng(seed)
    session = SurrogateSession(BOUNDS, rng=rng)
    X = rng.uniform(BOUNDS[:, 0], BOUNDS[:, 1], size=(n, 2))
    y = -((X[:, 0] - 5.0) ** 2) + X[:, 1]
    session.add_batch(X, y)
    return session


class TestDataset:
    def test_add_and_best(self):
        session = SurrogateSession(BOUNDS)
        session.add([1.0, 0.0], 3.0)
        session.add([2.0, 0.0], 7.0)
        session.add([3.0, 0.0], 5.0)
        assert session.n_observations == 3
        assert session.best_y == 7.0
        np.testing.assert_array_equal(session.best_x, [2.0, 0.0])

    def test_best_without_data_raises(self):
        with pytest.raises(RuntimeError):
            SurrogateSession(BOUNDS).best_y

    def test_add_validates_shape(self):
        session = SurrogateSession(BOUNDS)
        with pytest.raises(ValueError):
            session.add([1.0], 0.0)


class TestFitting:
    def test_refit_returns_predictive_model(self):
        session = make_session()
        session.refit()
        mu, sigma = session.predict_physical(session.X[:5])
        np.testing.assert_allclose(mu, session.y[:5], atol=0.5)

    def test_refit_degrades_below_two_points(self):
        # Drivers under a "drop" failure policy can reach a refit with a
        # starved dataset; refit must degrade (return None), not crash.
        session = SurrogateSession(BOUNDS)
        assert session.refit() is None
        session.add([1.0, 0.0], 0.0)
        assert not session.can_fit
        assert session.refit() is None
        assert session.model is None
        with pytest.raises(RuntimeError):
            session.require_model()
        session.add([2.0, 0.5], 1.0)
        assert session.can_fit
        assert session.refit() is not None

    def test_require_model_before_fit(self):
        with pytest.raises(RuntimeError):
            SurrogateSession(BOUNDS).require_model()

    def test_warm_start_refits(self):
        session = make_session()
        session.refit()
        theta_first = session.model.get_theta()
        session.add([5.0, 0.5], 0.4)
        session.refit()
        # Model refit on n+1 points; hyperparameters stay finite and bounded.
        assert np.all(np.isfinite(session.model.get_theta()))
        assert session.model.n_train == 26
        assert theta_first.shape == session.model.get_theta().shape


class TestIncrementalSchedule:
    def test_invalid_mode_rejected(self):
        # There is one update path; the keyword that chose between two is
        # refused by name.
        with pytest.raises(TypeError, match="surrogate_update"):
            SurrogateSession(BOUNDS, surrogate_update="full")
        with pytest.raises(ValueError):
            SurrogateSession(BOUNDS, refit_every=0)

    def test_refit_every_schedules_ml2(self):
        session = make_session()
        session.refit_every = 3
        for i in range(7):
            session.refit()
            session.add([1.0 + 0.5 * i, 0.1], float(i))
        # Refits 1, 4, 7 pay ML-II; 2, 3, 5, 6 are incremental updates.
        assert session.stats.n_full_fits == 3
        assert session.stats.n_incremental_updates == 4
        assert session.stats.n_refits == 7
        assert len(session.stats.refit_seconds) == 7

    def test_incremental_tracks_growing_dataset(self):
        session = SurrogateSession(BOUNDS, rng=0, refit_every=100)
        rng = np.random.default_rng(4)
        X = rng.uniform(BOUNDS[:, 0], BOUNDS[:, 1], size=(8, 2))
        session.add_batch(X, np.sin(X[:, 0]))
        session.refit()
        theta = session.model.get_theta().copy()
        for i in range(5):
            session.add(rng.uniform(BOUNDS[:, 0], BOUNDS[:, 1]), float(i))
            session.refit()
        assert session.model.n_train == 13
        # Hyperparameters frozen between ML-II events.
        np.testing.assert_array_equal(session.model.get_theta(), theta)
        assert session.stats.n_incremental_updates == 5

    def test_pd_loss_falls_back_to_refactorization(self, monkeypatch):
        session = SurrogateSession(BOUNDS, rng=0, refit_every=100)
        rng = np.random.default_rng(5)
        X = rng.uniform(BOUNDS[:, 0], BOUNDS[:, 1], size=(10, 2))
        session.add_batch(X, X[:, 1])
        session.refit()

        from repro.gp.gp import GaussianProcess

        def boom(self, X_new, y_new, **kwargs):
            raise np.linalg.LinAlgError("simulated PD loss")

        monkeypatch.setattr(GaussianProcess, "update", boom)
        session.add([3.3, -0.4], 0.7)
        model = session.refit()
        assert model is not None and model.n_train == 11
        assert session.stats.n_fallbacks == 1
        assert session.stats.n_refactorizations == 1
        # The fallback refactorization must still serve predictions.
        mu, sigma = session.predict_physical(session.X[:3])
        assert np.all(np.isfinite(mu)) and np.all(sigma > 0)

    def test_fallback_emits_metric(self, monkeypatch):
        # Regression: the PD-loss fallback used to be visible only through
        # run-end stats; it must now tick surrogate.fallback_rebuilds so
        # operators can watch the incremental path degrade live.
        from repro.obs import MetricsRegistry, Observability
        from repro.gp.gp import GaussianProcess

        metrics = MetricsRegistry()
        rng = np.random.default_rng(9)
        session = SurrogateSession(
            BOUNDS, rng=rng, refit_every=100,
            obs=Observability(metrics=metrics),
        )
        X = rng.uniform(BOUNDS[:, 0], BOUNDS[:, 1], size=(10, 2))
        session.add_batch(X, np.sin(X[:, 0]) + X[:, 1])
        session.refit()

        def boom(self, X_new, y_new, **kwargs):
            raise np.linalg.LinAlgError("simulated PD loss")

        monkeypatch.setattr(GaussianProcess, "update", boom)
        session.add([3.3, -0.4], 0.7)
        assert session.refit() is not None
        assert metrics.counter("surrogate.fallback_rebuilds") == 1
        assert session.stats.n_fallbacks == 1


class TestSurrogateKinds:
    """The exact GP is the only posterior; the kind seam is gone."""

    def test_invalid_kind_and_budgets_rejected(self):
        # The keywords that chose a posterior kind and sized the sparse
        # one are refused by name, whatever their value.
        retired = {"surrogate": "approximate", "max_exact_n": 0,
                   "n_inducing": 0}
        for key, value in retired.items():
            with pytest.raises(TypeError, match=key):
                SurrogateSession(BOUNDS, **{key: value})
        for value in ("exact", "auto", "sparse"):
            with pytest.raises(TypeError, match="surrogate"):
                SurrogateSession(BOUNDS, surrogate=value)


class TestPending:
    def test_hallucination_collapses_sigma(self):
        session = make_session()
        session.refit()
        x_pending = np.array([[7.7, 0.3]])
        _, sigma_before = session.predict_physical(x_pending)
        model_h = session.model_with_pending(x_pending)
        _, sigma_after = session.predict_physical(x_pending, model=model_h)
        assert sigma_after[0] < sigma_before[0]

    def test_empty_pending_returns_same_model(self):
        session = make_session()
        model = session.refit()
        assert session.model_with_pending(np.empty((0, 0))) is model

    def test_incremental_mode_returns_view(self):
        from repro.core.surrogate import HallucinatedView

        session = make_session()
        session.refit()
        model = session.model_with_pending(np.array([[7.7, 0.3]]))
        assert isinstance(model, HallucinatedView)
        assert model.discard() is session.model
        assert session.stats.n_hallucinated_views == 1

    def test_view_pd_loss_falls_back_to_rebuild(self, monkeypatch):
        from repro.core import surrogate as surrogate_mod
        from repro.gp import GaussianProcess

        session = make_session()
        session.refit()

        class Doomed(surrogate_mod.HallucinatedView):
            def __init__(self, base, X_pending):
                raise np.linalg.LinAlgError("simulated PD loss")

        monkeypatch.setattr(surrogate_mod, "HallucinatedView", Doomed)
        model = session.model_with_pending(np.array([[7.7, 0.3]]))
        assert isinstance(model, GaussianProcess)
        assert session.stats.n_fallbacks == 1
        assert session.stats.n_hallucinated_rebuilds == 1

    def test_acquisition_scorer_on_unit_cube(self):
        session = make_session()
        session.refit()
        scorer = session.acquisition_on_unit(WeightedAcquisition(0.5))
        U = np.random.default_rng(1).uniform(size=(8, 2))
        values = scorer(U)
        assert values.shape == (8,)
        assert np.all(np.isfinite(values))

    def test_unit_bounds(self):
        session = SurrogateSession(BOUNDS)
        np.testing.assert_array_equal(
            session.unit_bounds(), [[0.0, 1.0], [0.0, 1.0]]
        )

    def test_roundtrip_physical(self):
        session = SurrogateSession(BOUNDS)
        U = np.array([[0.5, 0.5]])
        np.testing.assert_allclose(session.to_physical(U), [[5.0, 0.0]])
