"""Equivalence harness: the incremental surrogate path is exact.

"Standard Acquisition Is Sufficient for Asynchronous BO"-style results rely
on the hallucinated-posterior machinery staying *numerically exact*; a fast
path that drifts silently degrades the async behaviour.  This harness
therefore proves, over hundreds of randomized append/discard sequences
mimicking the async loop, that every incremental operation — rank-k factor
appends, hallucinated views built and dropped, target refreshes, the
factor-sharing hallucinated view of Eq. 9, and the PD-loss fallback —
reproduces the from-scratch rebuild (``GaussianProcess.fit`` and
``condition_on_pending`` at the same hyperparameters) to <= 1e-8 in
posterior mean and standard deviation.
"""

import numpy as np
import pytest

from repro.core.surrogate import HallucinatedView, SurrogateSession
from repro.gp import GaussianProcess, SquaredExponential

#: Agreement threshold between incremental and full-rebuild posteriors.
TOL = 1e-8

#: Randomized append/discard sequences exercised by the harness.
N_SEQUENCES = 220


def scratch_gp(reference: GaussianProcess, X, y) -> GaussianProcess:
    """From-scratch rebuild with the same hyperparameters (the ground truth)."""
    model = GaussianProcess(
        kernel=reference.kernel.copy(), noise_variance=reference.noise_variance
    )
    return model.fit(X, y)


def assert_posteriors_match(model_a, model_b, probes, context=""):
    mu_a, sigma_a = model_a.predict(probes)
    mu_b, sigma_b = model_b.predict(probes)
    np.testing.assert_allclose(mu_a, mu_b, atol=TOL, rtol=0, err_msg=f"mean {context}")
    np.testing.assert_allclose(
        sigma_a, sigma_b, atol=TOL, rtol=0, err_msg=f"sigma {context}"
    )


def random_model(rng, dim, n0):
    """A fitted GP with randomized data and randomized hyperparameters."""
    kernel = SquaredExponential(
        dim,
        lengthscales=rng.uniform(0.2, 1.5, size=dim),
        variance=rng.uniform(0.5, 2.0),
    )
    model = GaussianProcess(kernel=kernel, noise_variance=rng.uniform(1e-5, 1e-2))
    X = rng.uniform(size=(n0, dim))
    y = rng.standard_normal(n0)
    return model.fit(X, y), X, y


class TestRandomizedSequences:
    """The core property: incremental == rebuild across async-like histories."""

    def test_append_discard_sequences(self):
        failures = 0
        for seq in range(N_SEQUENCES):
            rng = np.random.default_rng(1000 + seq)
            dim = int(rng.integers(1, 4))
            model, X, y = random_model(rng, dim, n0=int(rng.integers(3, 9)))
            probes = rng.uniform(size=(16, dim))
            for _ in range(int(rng.integers(4, 9))):
                op = rng.choice(["append", "discard", "retarget"])
                if op == "append":
                    k = int(rng.integers(1, 4))
                    X_new = rng.uniform(size=(k, dim))
                    y_new = rng.standard_normal(k)
                    model.update(X_new, y_new)
                    X = np.vstack([X, X_new])
                    y = np.concatenate([y, y_new])
                elif op == "discard":
                    # Hallucinate pending points, then drop them: the view
                    # must leave the shared base factor untouched.
                    pending = rng.uniform(size=(int(rng.integers(1, 4)), dim))
                    view = HallucinatedView(model, pending)
                    assert view.n_train == model.n_train + len(pending)
                    model = view.discard()
                else:
                    y = y + rng.standard_normal(len(y)) * 0.1
                    model.set_targets(y)
                assert_posteriors_match(
                    model, scratch_gp(model, X, y), probes,
                    context=f"sequence {seq} after {op}",
                )
        assert failures == 0

    def test_hallucinated_posterior_matches_eq9(self):
        """The Eq. 9 view == sequential kriging believer == scratch rebuild."""
        for seq in range(60):
            rng = np.random.default_rng(7000 + seq)
            dim = int(rng.integers(1, 4))
            model, X, y = random_model(rng, dim, n0=int(rng.integers(4, 10)))
            probes = rng.uniform(size=(16, dim))
            k = int(rng.integers(1, 5))
            pending = rng.uniform(size=(k, dim))

            view = HallucinatedView(model, pending)
            sequential = model.condition_on_pending(pending)
            # Joint kriging believer: pseudo-targets are the base posterior
            # means, so the scratch reference fits the extended dataset.
            pseudo = model.predict(pending, return_std=False)
            scratch = scratch_gp(
                model, np.vstack([X, pending]), np.concatenate([y, pseudo])
            )

            assert_posteriors_match(view, sequential, probes, f"view/seq {seq}")
            assert_posteriors_match(view, scratch, probes, f"view/scratch {seq}")
            # Kriging believer leaves the mean surface unchanged.
            np.testing.assert_allclose(
                view.predict(probes, return_std=False),
                model.predict(probes, return_std=False),
                atol=TOL, rtol=0,
            )
            # And collapses sigma at the pending points themselves.
            _, sigma_at_pending = view.predict(pending)
            _, sigma_before = model.predict(pending)
            assert np.all(sigma_at_pending <= sigma_before + TOL)


class TestPdLossFallback:
    """Loss of positive definiteness must fall back, never corrupt."""

    def test_append_raises_on_exactly_singular_block(self):
        # Exact-arithmetic construction (integer-valued floats): the Schur
        # complement of the appended block is exactly zero, which the strict
        # (non-clamping) append must reject.  This is the primitive the
        # update/view fallbacks are built on.
        from repro.gp.linalg import cholesky_append

        lower = np.eye(2)
        cross = np.array([[1.0, 1.0], [0.0, 0.0]])
        corner = np.ones((2, 2))  # corner - B^T B == zeros exactly
        with pytest.raises(np.linalg.LinAlgError):
            cholesky_append(lower, cross, corner)

    def test_update_pd_loss_leaves_model_intact(self, monkeypatch):
        rng = np.random.default_rng(0)
        model, X, y = random_model(rng, 2, n0=6)
        probes = rng.uniform(size=(8, 2))
        mu_before, sigma_before = model.predict(probes)

        from repro.gp import gp as gp_mod

        def boom(lower, cross, corner):
            raise np.linalg.LinAlgError("simulated PD loss")

        monkeypatch.setattr(gp_mod.linalg, "cholesky_append", boom)
        with pytest.raises(np.linalg.LinAlgError):
            model.update(rng.uniform(size=(2, 2)), np.zeros(2))
        # Strong exception safety: the model still answers, unchanged.
        assert model.n_train == 6
        mu_after, sigma_after = model.predict(probes)
        np.testing.assert_array_equal(mu_before, mu_after)
        np.testing.assert_array_equal(sigma_before, sigma_after)

    def test_session_fallback_posterior_still_exact(self, monkeypatch):
        """After a PD-loss fallback the session posterior equals a full refit."""
        from repro.gp.gp import GaussianProcess

        bounds = np.array([[0.0, 1.0], [0.0, 1.0]])
        session = SurrogateSession(bounds, rng=0, refit_every=50)
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(8, 2))
        session.add_batch(X, np.cos(4 * X[:, 0]) + X[:, 1])
        session.refit()

        real_update = GaussianProcess.update

        def flaky_update(self, X_new, y_new, **kwargs):
            if not flaky_update.tripped:
                flaky_update.tripped = True
                raise np.linalg.LinAlgError("simulated PD loss")
            return real_update(self, X_new, y_new, **kwargs)

        flaky_update.tripped = False
        monkeypatch.setattr(GaussianProcess, "update", flaky_update)
        session.add([0.3, 0.7], 0.5)
        model = session.refit()
        assert model is not None
        assert session.stats.n_fallbacks == 1
        assert session.stats.n_refactorizations == 1
        # The fallback refactorized from scratch: the served posterior must
        # equal a from-scratch rebuild on the same data, same hyperparameters.
        probes = rng.uniform(size=(12, 2))
        reference = scratch_gp(
            model,
            session.transform.to_unit(session.X),
            session.output.transform(session.y),
        )
        assert_posteriors_match(model, reference, probes, "post-fallback")
        # And the next refit resumes the incremental fast path.
        session.add([0.9, 0.1], 0.2)
        session.refit()
        assert session.stats.n_incremental_updates >= 1
        assert session.stats.n_fallbacks == 1


class TestSessionModeEquivalence:
    """The session agrees with the rebuild reference event by event."""

    @pytest.mark.parametrize("refit_every", [1, 4])
    def test_streaming_agreement(self, refit_every):
        bounds = np.array([[-2.0, 3.0], [0.0, 1.0], [5.0, 9.0]])
        session = SurrogateSession(bounds, rng=0, refit_every=refit_every)
        rng = np.random.default_rng(11)
        probes = rng.uniform(bounds[:, 0], bounds[:, 1], size=(10, 3))
        X0 = rng.uniform(bounds[:, 0], bounds[:, 1], size=(6, 3))
        session.add_batch(X0, np.sin(X0[:, 0]) + 0.1 * X0[:, 2])
        U_probes = session.transform.to_unit(probes)
        for event in range(10):
            x = rng.uniform(bounds[:, 0], bounds[:, 1])
            session.add(x, float(np.sin(x[0]) + 0.1 * x[2]))
            pending = rng.uniform(bounds[:, 0], bounds[:, 1], size=(3, 3))
            model = session.refit()
            # Rebuild from scratch at the session's hyperparameters, then
            # hallucinate the pending points one by one.
            reference = scratch_gp(
                model,
                session.transform.to_unit(session.X),
                session.output.transform(session.y),
            ).condition_on_pending(session.transform.to_unit(pending))
            assert_posteriors_match(
                session.model_with_pending(pending), reference, U_probes,
                f"at event {event}",
            )
        stats = session.stats
        assert stats.n_incremental_updates == (0 if refit_every == 1 else 7)
        assert stats.n_hallucinated_views == 10
        assert stats.n_fallbacks == 0
