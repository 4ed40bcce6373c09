"""Surrogate-model session: transforms + GP + hyperparameter schedule.

Every BO driver owns one :class:`SurrogateSession`.  It normalizes the design
space to the unit cube and the observations to zero-mean/unit-variance, fits
the SE-ARD GP by ML-II (warm-started across refits), and exposes the pending-
point hallucination used by the paper's penalization scheme — all in one
place so the sequential, synchronous, and asynchronous drivers share exactly
the same modelling behaviour.

The posterior is the paper's exact GP.  One knob controls what each
dispatch costs: ``refit_every=K`` runs ML-II hyperparameter fitting on the
first refit and then every K-th refit.  In between the hyperparameters are
frozen and a refit appends the new observations to the cached Cholesky
factor as one rank-k block (O(n^2 k) per event), rebuilding the factor from
scratch only if the append loses positive definiteness.

The pending-point hallucination (Alg. 1 lines 5-6) is a
:class:`HallucinatedView`: the kriging-believer pseudo-observations are
appended to the factored system as one rank-k block and discarded by simply
dropping the view, never refactorizing the base model.  Both fast paths
compute the posterior of a from-scratch rebuild (``GaussianProcess.fit`` and
``condition_on_pending``) up to round-off, and fall back to that rebuild on
loss of positive definiteness; ``tests/test_incremental_equivalence.py``
enforces ≤1e-8.
"""

from __future__ import annotations

import time

import numpy as np

from repro.gp import (
    BoxTransform,
    GaussianProcess,
    HyperparameterBounds,
    OutputStandardizer,
    SquaredExponential,
    fit_hyperparameters,
)
from repro.gp import linalg
from repro.gp.gp import VARIANCE_FLOOR
from repro.sched.trace import SurrogateStats
from repro.utils.rng import as_generator
from repro.utils.validation import check_finite, check_matrix, check_vector

__all__ = ["SurrogateSession", "HallucinatedView", "SideGP"]

#: ML-II restarts for the very first fit and for warm-started refits.
N_RESTARTS_FIRST = 3
N_RESTARTS_REFIT = 1


class HallucinatedView:
    """Posterior view of a GP with pending points folded in, factor-shared.

    The kriging-believer construction (paper §III-C) appends each pending
    point with its own predictive mean as a pseudo-observation.  Because the
    pseudo-targets *are* the posterior means, the extended weight vector is
    exactly ``[alpha, 0]`` — the mean surface is unchanged — and only the
    variance needs the extended factor.  This view therefore stores just the
    border blocks of the extended Cholesky factor

        L_ext = [[L, 0], [B^T, L_p]],   B = L^{-1} k(X, X_p),
        L_p L_p^T = k(X_p, X_p) + sigma_n^2 I - B^T B

    sharing ``L`` with the base model: construction is O(n^2 k) with no copy
    and no refactorization, and discarding the pending points is dropping
    the view.  Equivalent to
    :meth:`~repro.gp.gp.GaussianProcess.condition_on_pending` up to
    round-off (enforced to ≤1e-8 by the equivalence harness).

    The view is a value: it captures at construction everything
    :meth:`predict` reads (the base's factor, weights and kernel
    hyperparameters, and the lengthscale-scaled inputs with their squared
    norms), so a later refit or update of the base leaves it unchanged.
    :meth:`predict` validates its input once and then pays only for the
    kernel block, its GEMMs and two LAPACK triangular solves — the polish
    calls it once per L-BFGS-B evaluation.

    Raises
    ------
    numpy.linalg.LinAlgError
        When the pending block's Schur complement is not positive definite
        (near-duplicate pending points at tiny noise); callers fall back to
        the rebuild path.
    """

    def __init__(self, base: GaussianProcess, X_pending):
        X_pending = check_matrix(X_pending, "X_pending", cols=base.dim)
        if X_pending.shape[0] == 0:
            raise ValueError("HallucinatedView needs at least one pending point")
        check_finite(X_pending, "X_pending")
        self.base = base
        self._X_pending = X_pending.copy()
        self._kernel = kernel = base.kernel.copy()
        self._lower = base.cholesky_factor
        self._alpha = base.alpha
        self._Xs, self._xs2 = kernel._scaled(base.X)
        self._Ps, self._ps2 = kernel._scaled(self._X_pending)
        cross = kernel._from_scaled(self._Xs, self._xs2, self._Ps, self._ps2)  # (n, k)
        corner = kernel._from_scaled(self._Ps, self._ps2, self._Ps, self._ps2)
        corner += base.noise_variance * np.eye(X_pending.shape[0])
        B = linalg.solve_lower(self._lower, cross)  # (n, k)
        self._Bt = B.T
        schur = corner - self._Bt @ B
        schur = 0.5 * (schur + schur.T)
        self._lower_p = np.linalg.cholesky(schur)  # raises LinAlgError

    # ---------------------------------------------------------- properties
    @property
    def dim(self) -> int:
        return self._kernel.dim

    @property
    def n_pending(self) -> int:
        return self._X_pending.shape[0]

    @property
    def n_train(self) -> int:
        """Size of the hallucinated training set (real + pending)."""
        return self._Xs.shape[0] + self.n_pending

    @property
    def X_pending(self) -> np.ndarray:
        return self._X_pending.copy()

    # ------------------------------------------------------------- predict
    def predict(self, X, return_std: bool = True):
        """Posterior mean (and the paper's sigma-hat) at the rows of ``X``.

        The mean equals the base model's mean exactly (kriging believer);
        the standard deviation is collapsed around the pending points.
        """
        X = check_matrix(X, "X", cols=self.dim)
        kernel = self._kernel
        Us, us2 = kernel._scaled(X)
        k1 = kernel._from_scaled(self._Xs, self._xs2, Us, us2)  # (n, m), mean and v1
        mu = k1.T @ self._alpha
        if not return_std:
            return mu
        v1 = linalg.solve_lower(self._lower, k1)
        k2 = kernel._from_scaled(self._Ps, self._ps2, Us, us2)  # (k, m)
        v2 = linalg.solve_lower(self._lower_p, k2 - self._Bt @ v1)
        var = kernel.variance - (v1**2).sum(axis=0) - (v2**2).sum(axis=0)
        sigma = np.sqrt(np.maximum(var, VARIANCE_FLOOR))
        return mu, sigma

    def discard(self) -> GaussianProcess:
        """Return the untouched base model (the pending points cost nothing
        to drop — no downdate, no refactorization ever happened)."""
        return self.base

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HallucinatedView(n_train={self._Xs.shape[0]}, "
            f"n_pending={self.n_pending})"
        )


class SurrogateSession:
    """Owns the GP surrogate over a physical design box.

    Parameters
    ----------
    bounds:
        Physical (optimizer-space) box bounds of the problem.
    rng:
        Stream used for hyperparameter restarts.
    refit_every:
        Run ML-II hyperparameter fitting only every this-many refits
        (default 1 = every refit, the paper's behaviour).  In between, the
        kernel is frozen and refits only append new observations to the
        cached Cholesky factor.
    obs:
        :class:`~repro.obs.Observability` facade used for ``fit`` /
        ``hallucinate`` profiling spans; defaults to the no-op
        :data:`~repro.obs.NULL_OBS`.
    """

    def __init__(self, bounds, *, rng=None, refit_every: int = 1, obs=None):
        if int(refit_every) < 1:
            raise ValueError(f"refit_every must be >= 1, got {refit_every}")
        self.transform = BoxTransform(bounds)
        self.rng = as_generator(rng)
        self.refit_every = int(refit_every)
        from repro.obs import NULL_OBS

        self.obs = obs if obs is not None else NULL_OBS
        self.output = OutputStandardizer()
        self.model: GaussianProcess | None = None
        self.stats = SurrogateStats()
        self._hyper_bounds = HyperparameterBounds(self.transform.dim)
        self._X = np.empty((0, self.transform.dim))
        self._y = np.empty(0)
        self._refit_countdown = 0  # 0 -> the next refit pays ML-II

    # ------------------------------------------------------------- dataset
    @property
    def dim(self) -> int:
        return self.transform.dim

    @property
    def n_observations(self) -> int:
        return len(self._y)

    @property
    def X(self) -> np.ndarray:
        """Observed designs in physical (optimizer-space) coordinates."""
        return self._X.copy()

    @property
    def y(self) -> np.ndarray:
        return self._y.copy()

    @property
    def best_index(self) -> int:
        if not len(self._y):
            raise RuntimeError("no observations yet")
        return int(np.argmax(self._y))

    @property
    def best_y(self) -> float:
        return float(self._y[self.best_index])

    @property
    def best_x(self) -> np.ndarray:
        return self._X[self.best_index].copy()

    def add(self, x, y_value: float) -> None:
        """Record one observation (does not refit — call :meth:`refit`).

        Rejects NaN/inf in either the point or the value: a poisoned
        observation would silently corrupt every subsequent GP fit, so
        failed evaluations must be imputed or dropped *before* this call
        (see :class:`~repro.core.faults.FailurePolicy`).
        """
        x = check_finite(check_vector(x, "x", size=self.dim), "x")
        y_value = float(y_value)
        if not np.isfinite(y_value):
            raise ValueError(
                f"observation must be finite, got {y_value!r}; failed "
                "evaluations must be imputed or dropped, never added raw"
            )
        self._X = np.vstack([self._X, x])
        self._y = np.append(self._y, y_value)

    def add_batch(self, X, y) -> None:
        X = check_finite(check_matrix(X, "X", cols=self.dim), "X")
        y = check_vector(y, "y", size=X.shape[0])
        if not np.all(np.isfinite(y)):
            raise ValueError(
                "observations must be finite; failed evaluations must be "
                "imputed or dropped, never added raw"
            )
        self._X = np.vstack([self._X, X])
        self._y = np.concatenate([self._y, y])

    # ------------------------------------------------------------- fitting
    @property
    def can_fit(self) -> bool:
        """Whether the GP has enough data to be (re)fitted."""
        return self.n_observations >= 2

    def refit(self) -> GaussianProcess | None:
        """(Re)fit the GP on all observations.

        Returns ``None`` with fewer than two observations instead of
        raising: drivers under a ``"drop"`` failure policy can reach a refit
        with a starved dataset mid-run, and must degrade to the DoE/prior
        exploration path rather than crash.

        Hyperparameters are tuned by warm-started ML-II on the first refit
        and then every ``refit_every``-th refit; other refits keep the
        kernel frozen and only fold new observations in, by a rank-k
        Cholesky append (with automatic fallback to a full refactorization
        on loss of positive definiteness).
        """
        if not self.can_fit:
            return None
        with self.obs.profile("fit", n=self.n_observations):
            started = time.perf_counter()
            U = self.transform.to_unit(self._X)
            z = self.output.fit_transform(self._y)
            if self.model is None or self._refit_countdown <= 0:
                self._fit_ml2(U, z)
            else:
                self._fit_incremental(U, z)
            self._refit_countdown -= 1
            self.stats.n_refits += 1
            self.stats.refit_seconds.append(time.perf_counter() - started)
        return self.model

    def _fit_ml2(self, U: np.ndarray, z: np.ndarray) -> None:
        """Full ML-II hyperparameter fit (warm-started after the first)."""
        if self.model is None:
            kernel = SquaredExponential(self.dim, lengthscales=0.3)
            self.model = GaussianProcess(kernel=kernel, noise_variance=1e-4)
            restarts = N_RESTARTS_FIRST
        else:
            restarts = N_RESTARTS_REFIT
        self.model.fit(U, z)
        fit_hyperparameters(
            self.model,
            bounds=self._hyper_bounds,
            n_restarts=restarts,
            rng=self.rng,
        )
        self.stats.n_full_fits += 1
        self._refit_countdown = self.refit_every

    def _fit_incremental(self, U: np.ndarray, z: np.ndarray) -> None:
        """Fold new observations into the cached factor (frozen kernel)."""
        n_new = self.n_observations - self.model.n_train
        try:
            if n_new < 0:
                raise np.linalg.LinAlgError("dataset shrank; factor unusable")
            if n_new:
                # set_targets below replaces every target anyway, so skip
                # the append's own weight-vector solve (refresh_alpha=False
                # leaves the model inconsistent only within this block).
                self.model.update(U[-n_new:], z[-n_new:], refresh_alpha=False)
            # Re-standardization moved every target, not just the new ones;
            # the factor is target-independent so this is one O(n^2) solve.
            self.model.set_targets(z)
            self.stats.n_incremental_updates += 1
        except np.linalg.LinAlgError:
            # The silent-corruption guard tripped: the appended block lost
            # positive definiteness and the model is rebuilt from scratch.
            # Surface it as a metric so operators can see how often the
            # incremental path degrades.
            self.stats.n_fallbacks += 1
            self.obs.inc("surrogate.fallback_rebuilds")
            self.model.fit(U, z)
            self.stats.n_refactorizations += 1

    def require_model(self) -> GaussianProcess:
        if self.model is None or not self.model.is_fitted:
            raise RuntimeError("call refit() before using the surrogate")
        return self.model

    # ------------------------------------------------------------- recovery
    def snapshot(self) -> dict:
        """JSON-serializable hyperparameter/schedule state for the journal.

        Captures the *physical* kernel parameters (lengthscales, variance,
        noise variance) rather than log-space theta: JSON round-trips floats
        exactly, so restoring avoids the one-ulp drift an ``exp(log(x))``
        round-trip could introduce and keeps warm-started ML-II bit-exact.
        The training set itself is not captured — it is replayed from the
        journal's completion records — and neither are the per-event timing
        samples: only the stats counters, so an ask record stays the same
        size as the run grows and two same-seed runs journal the same bytes.
        """
        snap = {
            "countdown": int(self._refit_countdown),
            "stats": self.stats.counters(),
            "model": None,
        }
        if self.model is not None:
            snap["model"] = {
                "lengthscales": [float(v) for v in self.model.kernel.lengthscales],
                "variance": float(self.model.kernel.variance),
                "noise_variance": float(self.model.noise_variance),
            }
        return snap

    def restore_snapshot(self, snap: dict | None) -> None:
        """Restore hyperparameters, refit schedule, and stats from a snapshot.

        Must be called *after* the observations have been replayed into the
        session: the model is re-fitted on the current dataset at the
        restored hyperparameters, which is what the next ML-II warm start of
        the uninterrupted run starts from.  Between ML-II fits
        (``refit_every > 1``) the rebuilt factor can differ from the crashed
        run's incrementally appended one by round-off — within the tolerance
        the equivalence harness grants the append.
        """
        if snap is None:
            return
        self._refit_countdown = int(snap.get("countdown", 0))
        stats = snap.get("stats")
        if stats is not None:
            # Counters continue the run's totals; timing samples stay with
            # the process that measured them (older journals carry them too).
            for name, value in SurrogateStats.from_dict(stats).counters().items():
                setattr(self.stats, name, value)
        params = snap.get("model")
        if params is None:
            self.model = None
            return
        kernel = SquaredExponential(
            self.dim,
            lengthscales=np.asarray(params["lengthscales"], dtype=float),
            variance=float(params["variance"]),
        )
        # Older snapshots also carry the retired "kind" and "n_inducing"
        # entries; every run that can resume was exact, so they are ignored.
        self.model = GaussianProcess(
            kernel=kernel, noise_variance=float(params["noise_variance"])
        )
        if self.can_fit:
            U = self.transform.to_unit(self._X)
            z = self.output.fit_transform(self._y)
            self.model.fit(U, z)

    # ------------------------------------------------- pending hallucination
    def model_with_pending(self, X_pending):
        """GP with pending points hallucinated at their predictive means.

        This is lines 5-6 of Algorithm 1: the returned model's sigma-hat is
        collapsed around the busy locations, providing the diversity
        penalization of Eq. 9.  With no pending points the fitted model is
        returned unchanged.  Otherwise the result is a
        :class:`HallucinatedView` over the cached factor (no copy, no
        refactorization); only when the view loses positive definiteness is
        the rebuild-per-point path (``condition_on_pending``) used.
        """
        model = self.require_model()
        X_pending = np.asarray(X_pending, dtype=float)
        if X_pending.size == 0:
            return model
        with self.obs.profile("hallucinate", k=int(np.atleast_2d(X_pending).shape[0])):
            started = time.perf_counter()
            U_pending = self.transform.to_unit(
                check_matrix(X_pending, "X_pending", cols=self.dim)
            )
            try:
                view = HallucinatedView(model, U_pending)
                self.stats.n_hallucinated_views += 1
                return view
            except np.linalg.LinAlgError:
                self.stats.n_fallbacks += 1
                self.obs.inc("surrogate.fallback_rebuilds")
                self.stats.n_hallucinated_rebuilds += 1
                return model.condition_on_pending(U_pending)
            finally:
                self.stats.hallucination_seconds.append(
                    time.perf_counter() - started
                )

    # ------------------------------------------------------------ predict
    def predict_physical(self, X, model=None):
        """Posterior in physical units at physical-coordinate points."""
        model = model if model is not None else self.require_model()
        U = self.transform.to_unit(check_matrix(X, "X", cols=self.dim))
        mu, sigma = model.predict(U)
        return self.output.inverse_mean(mu), self.output.inverse_std(sigma)

    def acquisition_on_unit(self, acquisition, model=None):
        """Wrap an :class:`Acquisition` as a unit-cube candidate scorer.

        Returns a callable suitable for
        :func:`repro.core.optimizers.maximize_acquisition` over the unit cube.
        ``model`` may be a :class:`~repro.gp.GaussianProcess` or a
        :class:`HallucinatedView` — acquisitions only need ``predict``.
        """
        model = model if model is not None else self.require_model()

        def scorer(U: np.ndarray) -> np.ndarray:
            return acquisition(model, U)

        return scorer

    def unit_bounds(self) -> np.ndarray:
        return np.column_stack([np.zeros(self.dim), np.ones(self.dim)])

    def to_physical(self, U) -> np.ndarray:
        return self.transform.to_physical(U)


class SideGP:
    """A GP over the unit cube that a driver fits beside its surrogate.

    The constrained and cost-aware drivers model constraint slacks and
    evaluation costs with these.  Like the main surrogate they warm-start
    ML-II across fits (two restarts on the first fit, one afterwards), so
    their hyperparameters are run state: :meth:`snapshot` is journaled with
    every ask and :meth:`restore` brings them back at resume.
    """

    def __init__(self, dim: int, rng, *, noise_variance: float):
        self.dim = int(dim)
        self.rng = rng
        self.noise_variance = float(noise_variance)
        self.output = OutputStandardizer()
        self.model: GaussianProcess | None = None
        self._bounds = HyperparameterBounds(self.dim)

    def fit(self, U: np.ndarray, y: np.ndarray) -> None:
        z = self.output.fit_transform(y)
        if self.model is None:
            self.model = GaussianProcess(
                kernel=SquaredExponential(self.dim, lengthscales=0.3),
                noise_variance=self.noise_variance,
            )
            restarts = 2
        else:
            restarts = 1
        self.model.fit(U, z)
        fit_hyperparameters(
            self.model, bounds=self._bounds, n_restarts=restarts, rng=self.rng
        )

    def snapshot(self) -> dict | None:
        """Physical hyperparameters (exact through JSON), or None unfitted."""
        if self.model is None:
            return None
        return {
            "lengthscales": [float(v) for v in self.model.kernel.lengthscales],
            "variance": float(self.model.kernel.variance),
            "noise_variance": float(self.model.noise_variance),
        }

    def restore(self, snap: dict | None) -> None:
        """Warm-start state from :meth:`snapshot`; the next :meth:`fit` refits."""
        if snap is None:
            self.model = None
            return
        self.model = GaussianProcess(
            kernel=SquaredExponential(
                self.dim,
                lengthscales=np.asarray(snap["lengthscales"], dtype=float),
                variance=float(snap["variance"]),
            ),
            noise_variance=float(snap["noise_variance"]),
        )
