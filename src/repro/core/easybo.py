"""High-level EasyBO facade and the label factory that builds every run.

:class:`EasyBO` is the one-stop user API::

    from repro import EasyBO
    from repro.circuits import OpAmpProblem

    result = EasyBO(OpAmpProblem(), batch_size=5, rng=0).optimize()
    print(result.best_fom, result.best_x)

:func:`make_algorithm` turns the paper's row labels ("pBO-5", "EasyBO-SP-10",
"DE", "LCB", ...) into configured drivers, which is how the Table I/II benches
enumerate their grids; the facade's modes are labels too, and the two are
the only ways to build a run.  Every label but DE
runs on :class:`~repro.core.bo.BODriverBase`, whose campaign
:func:`~repro.core.campaign.make_campaign` builds from the label's
:data:`~repro.core.campaign.FAMILIES` row; its strategy (side models
included) is the only source of proposals.
"""

from __future__ import annotations

from repro.baselines.de import DifferentialEvolution
from repro.core.bo import BODriverBase
from repro.core.campaign import parse_label
from repro.core.problem import Problem
from repro.core.results import RunResult

__all__ = ["EasyBO", "make_algorithm"]


#: ``EasyBO(mode=...)``: the label family each mode runs.
_MODES = {
    "async": "EasyBO",
    "async-nopen": "EasyBO-A",
    "sync": "EasyBO-SP",
    "sync-nopen": "EasyBO-S",
}


class EasyBO:
    """The paper's algorithm with sensible defaults.

    Parameters
    ----------
    problem:
        Any :class:`~repro.core.problem.Problem`.
    batch_size:
        Number of parallel workers B; 1 gives sequential EasyBO.
    mode:
        ``"async"`` (the contribution), ``"sync"`` (EasyBO-SP), or their
        unpenalized ablations ``"async-nopen"`` / ``"sync-nopen"``.
    n_init / max_evals / rng / pool_factory:
        Forwarded to the underlying driver (paper defaults: 20 / 150).
    failure_policy:
        Optional :class:`~repro.core.faults.FailurePolicy` (forwarded like
        any driver kwarg): retries/timeouts for the pool, impute-or-drop
        for the driver.  Defaults to no retries, pessimistic imputation.
    refit_every:
        Surrogate schedule (forwarded like any driver kwarg): pay the ML-II
        hyperparameter fit only every K dispatches and append new
        observations to the cached Cholesky factor in between.  See
        :class:`~repro.core.surrogate.SurrogateSession`.
    journal / checkpoint_every:
        Crash safety (forwarded like any driver kwarg): ``journal=path``
        appends every state transition to a write-ahead journal that
        :func:`repro.core.recovery.resume` can replay after a crash, and
        ``checkpoint_every=N`` adds a verification checkpoint record every
        N completions.  See :mod:`repro.core.journal`.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        batch_size: int = 5,
        mode: str = "async",
        n_init: int = 20,
        max_evals: int = 150,
        rng=None,
        pool_factory=None,
        **driver_kwargs,
    ):
        try:
            family = _MODES[mode.lower()]
        except KeyError:
            raise ValueError(
                f"unknown mode {mode!r}; choose async, async-nopen, sync, sync-nopen"
            ) from None
        self.driver = make_algorithm(
            f"{family}-{batch_size}", problem, n_init=n_init,
            max_evals=max_evals, rng=rng, pool_factory=pool_factory,
            **driver_kwargs,
        )

    def optimize(self) -> RunResult:
        """Run the optimization to completion and return the result."""
        return self.driver.run()


def make_algorithm(label: str, problem: Problem, **kwargs):
    """Instantiate a driver from a paper-style label.

    ``label`` is case-insensitive: ``"DE"``, ``"EI"``, ``"LCB"``,
    ``"EasyBO"``, ``"pBO-5"``, ``"pHCBO-10"``, ``"EasyBO-S-5"``,
    ``"EasyBO-A-15"``, ``"EasyBO-SP-10"``, ``"EasyBO-15"``, ``"BUCB-4"``,
    ``"LP-5"``, ``"cEasyBO-3"``, ``"caEasyBO-3"``, ``"GP-Hedge"``,
    ``"Random"``.  A trailing ``-<int>`` is the batch size, or the worker
    count of DE and random search (``"Random-4"``).  The asynchronous
    pending-point policies also have label forms: ``"EasyBO-LP-5"`` (local
    penalisation), ``"EasyBO-PESS-5"`` (pessimistic), ``"EasyBO-A-5"``
    (standard acquisition) — equivalently, pass ``pending_policy=`` to the
    ``EasyBO`` family.  The labels are the rows of
    :data:`~repro.core.campaign.FAMILIES`, and a label is the only way to
    name what runs.  Every label but DE builds a
    :class:`~repro.core.bo.BODriverBase` on it: keyword arguments go to
    the driver, whose campaign :func:`~repro.core.campaign.make_campaign`
    builds from the same label and knobs (``lam`` / ``hc_d`` /
    ``pending_policy`` / ``cost_exponent`` / ``eta``), so a journaled
    config round-trips.  A side-model strategy's own report lives on
    ``driver.campaign.strategy`` (cEasyBO's ``best_feasible``, GP-Hedge's
    ``plays``).  DE runs its own loop and refuses every keyword it cannot
    honour, ``journal=`` included.
    """
    family, batch = parse_label(label, kwargs.get("pending_policy"))
    if family.build is None:
        return DifferentialEvolution(problem, n_workers=batch, **kwargs)
    return BODriverBase(problem, label, **kwargs)
