"""Tests for the acquisition maximizer."""

import numpy as np
import pytest
from scipy import optimize

from repro.circuits.benchmarks import branin
from repro.core.campaign import FAMILIES, Campaign
from repro.core.easybo import make_algorithm
from repro.core.optimizers import maximize_acquisition
from repro.obs import MetricsRegistry, Observability
from tests.test_core_constrained import DiskProblem
from tests.test_core_cost_aware import plateau_problem

BOUNDS = np.array([[-2.0, 2.0], [-2.0, 2.0]])


def quadratic(X):
    """Peak 1.0 at (0.5, -0.5)."""
    return 1.0 - np.sum((X - np.array([0.5, -0.5])) ** 2, axis=1)


class TestMaximize:
    def test_finds_smooth_peak(self):
        x = maximize_acquisition(quadratic, BOUNDS, rng=0)
        np.testing.assert_allclose(x, [0.5, -0.5], atol=1e-3)

    def test_respects_bounds(self):
        def edge(X):
            return X[:, 0] + X[:, 1]  # maximum at the corner (2, 2)

        x = maximize_acquisition(edge, BOUNDS, rng=0)
        np.testing.assert_allclose(x, [2.0, 2.0], atol=1e-6)

    def test_no_polish_mode(self):
        x = maximize_acquisition(
            quadratic, BOUNDS, rng=0, n_candidates=4096, polish=False
        )
        assert quadratic(x.reshape(1, -1))[0] > 0.95

    def test_deterministic(self):
        a = maximize_acquisition(quadratic, BOUNDS, rng=42)
        b = maximize_acquisition(quadratic, BOUNDS, rng=42)
        np.testing.assert_array_equal(a, b)

    def test_multimodal_picks_global(self):
        def two_bumps(X):
            b1 = 1.0 * np.exp(-20 * np.sum((X - [-1, -1]) ** 2, axis=1))
            b2 = 2.0 * np.exp(-20 * np.sum((X - [1, 1]) ** 2, axis=1))
            return b1 + b2

        x = maximize_acquisition(two_bumps, BOUNDS, rng=0, n_candidates=4096)
        np.testing.assert_allclose(x, [1.0, 1.0], atol=0.05)

    def test_nonfinite_values_handled(self):
        def sometimes_nan(X):
            values = quadratic(X)
            values[X[:, 0] > 1.5] = np.nan
            return np.where(np.isnan(values), -np.inf, values)

        x = maximize_acquisition(sometimes_nan, BOUNDS, rng=0)
        assert np.all(np.isfinite(x))

    @pytest.mark.parametrize("polish", [True, False])
    def test_nan_sweep_scores_never_win(self, polish):
        """A NaN sweep score ranks below every finite one: the returned
        point scores finite, with and without polish."""
        unit = np.array([[0.0, 1.0], [0.0, 1.0]])

        def nan_near_edge(U):
            values = -np.sum((U - 0.7) ** 2, axis=1)
            values[U[:, 0] < 0.05] = np.nan
            return values

        x = maximize_acquisition(
            nan_near_edge, unit, rng=0, n_candidates=256, polish=polish
        )
        assert np.isfinite(nan_near_edge(x.reshape(1, -1))[0])

    def test_shape_validation(self):
        def bad(X):
            return np.zeros((len(X), 2))

        with pytest.raises(ValueError, match="shape"):
            maximize_acquisition(bad, BOUNDS, rng=0)

    def test_candidate_count_validation(self):
        with pytest.raises(ValueError):
            maximize_acquisition(quadratic, BOUNDS, n_candidates=0)


def _difference_polish(scorer, bounds, seed, n_candidates=64):
    """One sweep-then-polish restart with scipy's own 2-point gradient,
    which scores each point and each neighbour in a call of its own."""
    rng = np.random.default_rng(seed)
    candidates = rng.uniform(bounds[:, 0], bounds[:, 1], size=(n_candidates, len(bounds)))
    values = scorer(candidates)
    start = candidates[np.argmax(values)]

    def negative(x):
        return -float(scorer(x.reshape(1, -1))[0])

    result = optimize.minimize(
        negative, start, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": 60, "eps": 1e-8},
    )
    best = result.x if -result.fun > values.max() else start
    return np.clip(best, bounds[:, 0], bounds[:, 1])


class TestBatchedPolish:
    """The polish scores a point and its d neighbours in one call."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("scorer", [
        quadratic,
        lambda X: X[:, 0] + X[:, 1],  # maximum on the upper corner
        lambda X: np.sin(3 * X[:, 0]) * np.cos(2 * X[:, 1]),
    ])
    def test_matches_scipys_own_difference(self, scorer, seed):
        """On a scorer whose rows score alike in any call, the batched
        gradient is scipy's own 2-point difference, bit for bit, the
        backward step at the upper bound included."""
        got = maximize_acquisition(scorer, BOUNDS, rng=seed, n_candidates=64,
                                   n_restarts=1)
        np.testing.assert_array_equal(got, _difference_polish(scorer, BOUNDS, seed))

    def test_polish_evals_counts_the_batched_calls(self):
        rows = []

        def spy(X):
            rows.append(len(X))
            return quadratic(X)

        metrics = MetricsRegistry()
        maximize_acquisition(spy, BOUNDS, rng=0, n_candidates=64, n_restarts=3,
                             obs=Observability(metrics=metrics))
        sweep, polish = rows[0], rows[1:]
        assert sweep == 64
        assert set(polish) == {len(BOUNDS) + 1}
        assert metrics.counter("acquisition.polish_evals") == len(polish)
        assert metrics.counter("acquisition.polish_restarts") == 3

    def test_nonfinite_scores_push_the_polish_away(self):
        """The peak lies in a NaN region, so the polish steps into it: a
        non-finite score (a point or a neighbour) is 1e30 to the minimizer,
        and the returned point scores finite."""

        def nan_above(X):
            values = quadratic(X)
            values[X[:, 1] > -0.6] = np.nan
            return values

        x = maximize_acquisition(nan_above, BOUNDS, rng=0, n_candidates=256)
        assert np.isfinite(nan_above(x.reshape(1, -1))[0])


#: Every family that proposes through the campaign (DE has no campaign
#: form; random search never proposes).
_PROPOSING = [key for key, family in FAMILIES.items()
              if family.build is not None and key != "random"]


@pytest.mark.parametrize("key", _PROPOSING)
def test_every_campaign_scorer_is_row_wise(key, monkeypatch):
    """A row scores the same alone as among 64 others, for every scorer a
    campaign maximizes: the batched polish depends on it."""
    errors = []
    maximize_unit = Campaign.maximize_unit

    def checked(self, scorer):
        U = np.random.default_rng(len(errors)).uniform(size=(64, self.session.dim))
        together = scorer(U)
        alone = np.array([scorer(u.reshape(1, -1))[0] for u in U])
        errors.append(np.max(np.abs(alone - together)
                              / np.maximum(1.0, np.abs(together))))
        return maximize_unit(self, scorer)

    monkeypatch.setattr(Campaign, "maximize_unit", checked)
    family = FAMILIES[key]
    target = DiskProblem() if key == "ceasybo" else branin()
    make_algorithm(f"{family.display}-2", target, n_init=5, max_evals=9, rng=0,
                   acq_candidates=64, acq_restarts=1).run()
    if key == "mace":
        # MACE samples its batch from a Pareto front and never maximizes.
        assert errors == []
        return
    assert errors
    assert max(errors) <= 1e-6


@pytest.mark.parametrize("label,target", [
    ("cEasyBO-3", DiskProblem),
    ("caEasyBO-3", plateau_problem),
])
def test_reshaped_families_polish(label, target):
    """cEasyBO's feasibility weight and caEasyBO's cost division keep the
    sweep's ranking in the polish, so polish restarts can win."""
    metrics = MetricsRegistry()
    make_algorithm(label, target(), n_init=5, max_evals=20, rng=0,
                   acq_candidates=256, metrics=metrics).run()
    assert metrics.counter("acquisition.polish_restarts") > 0
    assert metrics.counter("acquisition.polish_improvements") > 0
