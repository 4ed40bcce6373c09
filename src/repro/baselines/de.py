"""Differential evolution (DE/rand/1/bin) — the paper's evolutionary baseline.

The paper compares against the DE-based sizing system of Liu et al. [13],
run for 20000 (op-amp) / 15000 (class-E) sequential simulations.  This is the
canonical DE: for each population member a mutant ``a + F (b - c)`` is built
from three distinct other members, binomially crossed over with rate CR, and
the trial replaces its parent only if it improves the FOM.

DE is the one driver with its own loop rather than a campaign: a generation
is a barrier over the whole population, which may outnumber the workers.
"""

from __future__ import annotations

import numpy as np

from repro.core.bo import incumbent, shutdown_pool
from repro.core.campaign import FAMILIES
from repro.core.faults import FailurePolicy
from repro.core.problem import Problem
from repro.core.results import RunResult
from repro.sched.workers import VirtualWorkerPool
from repro.utils.rng import as_generator

__all__ = ["DifferentialEvolution"]


class DifferentialEvolution:
    """DE/rand/1/bin maximizer with optional parallel trial evaluation.

    Parameters
    ----------
    pop_size:
        Population size; defaults to ``max(15, 5 * dim)``.
    f:
        Differential weight F in [0, 2].
    cr:
        Crossover rate in [0, 1].
    n_workers:
        Evaluation parallelism (the paper runs DE sequentially: 1), the
        ``B`` of a ``DE-B`` label and of its result rows.
    failure_policy:
        The pool's :class:`~repro.core.faults.FailurePolicy` (retries,
        timeout); a failed evaluation loses its selection tournament.

    DE has no campaign, so any other keyword (``journal``, ``metrics``,
    ``n_init``, ...) is refused with a ``ValueError`` that names it.
    """

    def __init__(
        self,
        problem: Problem,
        *,
        max_evals: int,
        pop_size: int | None = None,
        f: float = 0.5,
        cr: float = 0.9,
        rng=None,
        n_workers: int = 1,
        pool_factory=None,
        failure_policy: FailurePolicy | None = None,
        **unsupported,
    ):
        if "journal" in unsupported:
            raise ValueError("DE cannot resume, so it does not take journal=")
        if unsupported:
            names = ", ".join(f"{name}=" for name in unsupported)
            raise ValueError(f"DE does not take {names}")
        if max_evals < 2:
            raise ValueError("max_evals must be >= 2")
        if not 0.0 <= f <= 2.0:
            raise ValueError(f"F must lie in [0, 2], got {f}")
        if not 0.0 <= cr <= 1.0:
            raise ValueError(f"CR must lie in [0, 1], got {cr}")
        self.problem = problem
        self.max_evals = int(max_evals)
        self.pop_size = int(pop_size) if pop_size else max(15, 5 * problem.dim)
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4 (rand/1 needs 3 distinct donors)")
        self.f = float(f)
        self.cr = float(cr)
        self.rng = as_generator(rng)
        self.n_workers = int(n_workers)
        self.pool_factory = pool_factory or VirtualWorkerPool
        self.failure_policy = failure_policy
        self.algorithm_name = FAMILIES["de"].label(self.n_workers)

    def run(self) -> RunResult:
        pool = self.pool_factory(
            self.problem, self.n_workers, policy=self.failure_policy
        )
        try:
            return self._drive(pool)
        finally:
            shutdown_pool(pool)

    def _drive(self, pool) -> RunResult:
        bounds = self.problem.bounds
        d = self.problem.dim
        budget = self.max_evals

        def evaluate_all(X: np.ndarray) -> np.ndarray:
            """Evaluate rows of X through the pool; returns FOMs in order."""
            foms = np.empty(X.shape[0])
            submitted = 0
            done = 0
            index_of = {}
            while done < X.shape[0]:
                while submitted < X.shape[0] and pool.idle_count > 0:
                    idx = pool.submit(X[submitted])
                    index_of[idx] = submitted
                    submitted += 1
                completion = pool.wait_next()
                result = completion.result
                # Failed evaluations lose the selection tournament outright.
                foms[index_of.pop(completion.index)] = (
                    result.fom if result.ok else -np.inf
                )
                done += 1
            return foms

        n0 = min(self.pop_size, budget)
        population = self.rng.uniform(bounds[:, 0], bounds[:, 1], size=(n0, d))
        fitness = evaluate_all(population)
        evaluations = n0

        while evaluations < budget:
            n_trials = min(self.pop_size, budget - evaluations, len(population))
            trials = np.empty((n_trials, d))
            for i in range(n_trials):
                trials[i] = self._make_trial(population, i)
            trial_fit = evaluate_all(trials)
            evaluations += n_trials
            improved = trial_fit > fitness[:n_trials]
            population[:n_trials][improved] = trials[improved]
            fitness[:n_trials][improved] = trial_fit[improved]

        best_x, best_fom = incumbent(pool.trace, d)
        return RunResult(
            algorithm=self.algorithm_name,
            problem=self.problem.name,
            trace=pool.trace,
            best_x=best_x,
            best_fom=best_fom,
            n_evaluations=len(pool.trace),
            wall_clock=pool.trace.makespan,
            n_failures=pool.trace.n_failures,
            n_retries=pool.trace.n_retries,
        )

    def _make_trial(self, population: np.ndarray, i: int) -> np.ndarray:
        """rand/1 mutation + binomial crossover for member ``i``."""
        bounds = self.problem.bounds
        n, d = population.shape
        choices = [j for j in range(n) if j != i]
        a, b, c = self.rng.choice(choices, size=3, replace=False)
        mutant = population[a] + self.f * (population[b] - population[c])
        mutant = np.clip(mutant, bounds[:, 0], bounds[:, 1])
        cross = self.rng.uniform(size=d) < self.cr
        cross[self.rng.integers(d)] = True  # at least one mutant gene
        trial = np.where(cross, mutant, population[i])
        return trial
