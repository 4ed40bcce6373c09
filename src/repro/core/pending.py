"""Pluggable pending-point policies for asynchronous proposals.

The paper's central design choice — Algorithm 1 lines 5-6 — hallucinates
still-pending points at their predictive means (Eq. 9) so the next proposal
steers away from busy locations.  Newer work disputes whether that machinery
is needed at all: Alvi et al. (arXiv:1901.10452) penalize the acquisition in
Lipschitz balls around pending points instead, pessimistic asynchronous
sampling (arXiv:2406.15291) hallucinates at *pessimistic* pseudo-values, and
"standard acquisition is sufficient" argues for doing nothing.  This module
turns that axis into a first-class extension point: a :class:`PendingPolicy`
decides (a) what posterior model the proposal pipeline maximizes over and
(b) how the acquisition itself is transformed, given the in-flight points.

``AsyncBatchStrategy`` consults the campaign's policy on every proposal, so
all four implementations compose unchanged with journals/resume, failure
policies, fault injection, and observability.  The default ``"hallucinate"``
policy reproduces the historical pipeline byte-for-byte (see
``tests/test_golden_trajectories.py``).

Policies are addressed by name::

    make_campaign("EasyBO-5", problem, pending_policy="lp")
    make_algorithm("EasyBO-5", problem, pending_policy="pessimistic")

or by label family (``EasyBO-LP-5`` / ``EasyBO-PESS-5`` / ``EasyBO-A-5``).
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

__all__ = [
    "PENDING_POLICIES",
    "PendingPolicy",
    "HallucinatePolicy",
    "StandardPolicy",
    "LocalPenalisationPolicy",
    "PessimisticPolicy",
    "make_pending_policy",
]


class PendingPolicy:
    """How an asynchronous proposal accounts for in-flight points.

    Subclasses override one (or both) of two hooks, called in this order by
    :class:`~repro.core.campaign.AsyncBatchStrategy.propose`:

    * :meth:`model` — the posterior model the acquisition is maximized over
      (default: the plain fitted model, pending ignored);
    * :meth:`wrap` — a transformation of the acquisition itself (default:
      unchanged).

    ``X_pending`` is always the campaign's pending matrix in *physical*
    coordinates ((k, dim), issue order); policies that work on the unit cube
    map it through ``session.transform.to_unit`` themselves.  ``rng`` is the
    campaign RNG — any draws a policy makes are part of the campaign's
    deterministic stream and therefore replay exactly on resume.
    """

    name = "base"

    def model(self, session, X_pending):
        """Posterior model to maximize the acquisition over."""
        return session.require_model()

    def wrap(self, session, model, acquisition, X_pending, *, rng=None):
        """Return the (possibly transformed) candidate scorer.

        The return value must be callable as ``scorer(model, U)`` over
        unit-cube candidate rows, like any
        :mod:`~repro.core.acquisition` object.
        """
        return acquisition

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class HallucinatePolicy(PendingPolicy):
    """The paper's Eq. 9: hallucinate pending points at predictive means.

    Delegates to :meth:`SurrogateSession.model_with_pending`, which builds
    the factor-sharing :class:`HallucinatedView` (the kriging-believer
    rebuild only when the view loses positive definiteness) — exactly the
    historical pipeline, byte-for-byte.
    """

    name = "hallucinate"

    def model(self, session, X_pending):
        return session.model_with_pending(X_pending)


class StandardPolicy(PendingPolicy):
    """Plain standard acquisition: the pending set is ignored entirely.

    The asynchronous-sufficiency position (see PAPERS.md): thanks to the
    random Eq. 8 weight, consecutive proposals differ anyway, so no explicit
    diversity machinery is applied.  The ``EasyBO-A`` label's policy: the
    paper's ablation of asynchrony without the Eq. 9 penalty.
    """

    name = "none"


class LocalPenalisationPolicy(PendingPolicy):
    """Local penalisation around pending points (Gonzalez et al. 2016,
    as refined for the asynchronous setting by Alvi et al. 2019).

    The acquisition is maximized through a soft-plus transform with one
    multiplicative penalty ball per pending point::

        score(u) = log(softplus(acq(u))) + sum_j log phi_j(u)
        phi_j(u) = Phi( (L * ||u - u_j|| - (M - mu_j)) / (sqrt(2) sigma_j) )

    where ``L`` is a finite-difference Lipschitz estimate of the posterior
    mean, ``M`` the standardized incumbent best, and ``(mu_j, sigma_j)`` the
    posterior at pending point ``u_j``.  ``phi_j`` lies in ``(0, 1]`` and
    tends to 1 away from ``u_j``, so far from the pending set the penalised
    maximizer coincides with the plain one; the soft-plus makes the transform
    safe for acquisitions that take negative values (the weighted Eq. 8
    acquisition does, in standardized output scale).

    The posterior model itself is left untouched — only the acquisition
    surface is reshaped.
    """

    name = "lp"

    @staticmethod
    def penalisation_factor(U, u_j, mu_j, sigma_j, lipschitz, best):
        """Per-candidate penalty factor ``phi_j`` for one pending point.

        Vectorized over candidate rows ``U``; clamped into ``(0, 1]`` so the
        log-space combination below never sees an exact zero.
        """
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u_j = np.asarray(u_j, dtype=float).ravel()
        radius = np.linalg.norm(U - u_j[None, :], axis=1)
        z = (float(lipschitz) * radius - (float(best) - float(mu_j))) / max(
            np.sqrt(2.0) * float(sigma_j), 1e-12
        )
        return np.clip(ndtr(z), 1e-300, 1.0)

    @staticmethod
    def estimate_lipschitz(model, dim, rng) -> float:
        """Max-norm finite-difference gradient of the posterior mean over
        256 uniform probes."""
        U = rng.uniform(size=(256, int(dim)))
        eps = 1e-4
        mu0 = model.predict(U, return_std=False)
        grad_sq = np.zeros(len(U))
        for j in range(int(dim)):
            shifted = U.copy()
            shifted[:, j] = np.minimum(shifted[:, j] + eps, 1.0)
            mu1 = model.predict(shifted, return_std=False)
            grad_sq += ((mu1 - mu0) / eps) ** 2
        return max(float(np.sqrt(grad_sq.max())), 1e-6)

    def wrap(self, session, model, acquisition, X_pending, *, rng=None):
        X_pending = np.asarray(X_pending, dtype=float)
        if X_pending.size == 0:
            return acquisition
        rng = rng if rng is not None else np.random.default_rng(0)
        U_pending = session.transform.to_unit(X_pending)
        lipschitz = self.estimate_lipschitz(model, session.dim, rng)
        best = float(session.output.transform(np.array([session.best_y]))[0])
        mu_p, sigma_p = model.predict(U_pending)
        factor = self.penalisation_factor

        def penalised(inner_model, U):
            values = np.log(np.logaddexp(0.0, acquisition(inner_model, U)))
            for u_j, mu_j, sigma_j in zip(U_pending, mu_p, sigma_p):
                values += np.log(factor(U, u_j, mu_j, sigma_j, lipschitz, best))
            return values

        return penalised


class PessimisticPolicy(PendingPolicy):
    """Pessimistic asynchronous sampling (arXiv:2406.15291).

    Pending points are hallucinated not at their predictive means but at the
    pessimistic pseudo-value ``mu - beta * sigma``: the extended model's mean
    is pulled *down* near busy locations on top of the usual variance
    collapse.  For any acquisition that is non-decreasing in both the
    posterior mean and standard deviation (the Eq. 8 weighted acquisition,
    UCB, EI), the acquisition at a *single* pending point therefore never
    exceeds its no-pending baseline, and the spread never inflates anywhere
    for any pending set — the property-test sweep pins both invariants.
    (With several pending points the greedy pseudo-observations interact
    through the posterior covariance, so the per-point mean bound is only
    guaranteed against the model state each point was conditioned on.)

    ``beta=0`` degenerates to the kriging believer (Eq. 9 hallucination via
    the rebuild path).
    """

    name = "pessimistic"

    def __init__(self, *, beta: float = 1.0):
        if beta < 0:
            raise ValueError("beta must be >= 0")
        self.beta = float(beta)

    def condition_pessimistic(self, model, U_pending):
        """Copy of ``model`` extended with pessimistic pseudo-observations.

        Mirrors :meth:`GaussianProcess.condition_on_pending` (greedy, one
        border update per point) with ``mu - beta * sigma`` targets.
        """
        extended = model.copy()
        for u in np.atleast_2d(U_pending):
            mu, sigma = extended.predict(u.reshape(1, -1))
            extended.add_observation(u, float(mu[0] - self.beta * sigma[0]))
        return extended

    def model(self, session, X_pending):
        model = session.require_model()
        X_pending = np.asarray(X_pending, dtype=float)
        if X_pending.size == 0:
            return model
        U_pending = session.transform.to_unit(X_pending)
        return self.condition_pessimistic(model, U_pending)


#: Registry of selectable policies, in documentation order.
_POLICY_TYPES = {
    "hallucinate": HallucinatePolicy,
    "lp": LocalPenalisationPolicy,
    "pessimistic": PessimisticPolicy,
    "none": StandardPolicy,
}

PENDING_POLICIES = tuple(_POLICY_TYPES)


def make_pending_policy(spec) -> PendingPolicy:
    """Resolve a policy name or instance into a :class:`PendingPolicy`.

    Accepts a registry name (``"hallucinate"`` / ``"lp"`` / ``"pessimistic"``
    / ``"none"``), an existing policy instance (returned as-is), or ``None``
    (the default ``"hallucinate"``).
    """
    if spec is None:
        return HallucinatePolicy()
    if isinstance(spec, PendingPolicy):
        return spec
    if isinstance(spec, str):
        key = spec.strip().lower()
        if key in _POLICY_TYPES:
            return _POLICY_TYPES[key]()
        raise ValueError(
            f"unknown pending policy {spec!r}; choose from {PENDING_POLICIES}"
        )
    raise TypeError(
        f"pending_policy must be a name or PendingPolicy, got {type(spec).__name__}"
    )
