"""Pending-policy tournament: policies x circuits x batches x fault rates.

The head-to-head the ROADMAP asks for: run every pending-point policy
(:mod:`repro.core.pending`) over a grid of circuits, batch sizes, and
injected fault rates, with **paired seeds** — each (circuit, batch,
fault-rate, seed) cell uses the identical driver seed and fault stream for
every policy, so per-cell regret differences measure the policy and nothing
else.  The result is a ranked table (mean/median simple regret) plus paired
regret comparisons against the paper's Eq. 9 hallucination baseline.

Everything is a pure function of the scale definition: rerunning a
tournament reproduces it bit-for-bit.  Used by the ``tournament`` CLI verb
(``python -m repro tournament``) and ``benchmarks/bench_policy_tournament.py``.
"""

from __future__ import annotations

import dataclasses
import statistics
import zlib

from repro.core.faults import FaultInjectionProblem
from repro.core.pending import PENDING_POLICIES
from repro.utils.tables import format_table

__all__ = [
    "TournamentScale",
    "SCALES",
    "CellResult",
    "run_tournament",
    "rank_table",
    "paired_comparisons",
    "render_report",
    "check_tournament",
]


@dataclasses.dataclass(frozen=True)
class TournamentScale:
    """One tournament grid definition; every field is part of the seed."""

    name: str
    policies: tuple
    circuits: tuple
    batch_sizes: tuple
    fault_rates: tuple
    n_seeds: int
    n_init: int
    max_evals: int
    acq_candidates: int = 64
    acq_restarts: int = 1


SCALES = {
    # CI floor: 2 policies x 1 circuit, seeded; asserts the harness runs the
    # full grid and reruns a cell bit for bit.
    "smoke": TournamentScale(
        "smoke",
        policies=("hallucinate", "none"),
        circuits=("branin",),
        batch_sizes=(3,),
        fault_rates=(0.0,),
        n_seeds=2,
        n_init=4,
        max_evals=10,
    ),
    # The acceptance grid: every policy, >= 2 circuits x 2 batches x 2 fault
    # rates, 3 paired seeds per cell (96 runs).
    "reduced": TournamentScale(
        "reduced",
        policies=PENDING_POLICIES,
        circuits=("branin", "sphere2"),
        batch_sizes=(3, 5),
        fault_rates=(0.0, 0.2),
        n_seeds=3,
        n_init=5,
        max_evals=16,
    ),
    "paper": TournamentScale(
        "paper",
        policies=PENDING_POLICIES,
        circuits=("branin", "sphere2", "hartmann6"),
        batch_sizes=(3, 5, 10),
        fault_rates=(0.0, 0.1, 0.3),
        n_seeds=10,
        n_init=10,
        max_evals=40,
        acq_candidates=256,
    ),
}


@dataclasses.dataclass(frozen=True)
class CellResult:
    """One seeded run of one policy on one grid cell."""

    policy: str
    circuit: str
    batch: int
    fault_rate: float
    seed: int
    best_fom: float
    regret: float
    n_evaluations: int
    n_failures: int
    wall_clock: float

    @property
    def cell_key(self):
        """Pairing key — identical across policies for paired comparisons."""
        return (self.circuit, self.batch, self.fault_rate, self.seed)


def _fault_seed(circuit: str, batch: int, fault_rate: float, seed: int) -> int:
    """Deterministic fault-stream seed, identical for every policy in a cell."""
    return zlib.crc32(f"{circuit}|{batch}|{fault_rate}|{seed}".encode())


def run_cell(
    policy: str,
    circuit: str,
    batch: int,
    fault_rate: float,
    seed: int,
    scale: TournamentScale,
) -> CellResult:
    """Run one policy on one (circuit, batch, fault-rate, seed) cell."""
    from repro.core.campaign import policy_family
    from repro.core.easybo import make_algorithm
    from repro.core.recovery import resolve_problem

    base = resolve_problem(circuit)
    problem = base
    if fault_rate > 0:
        # Split the rate between crashes and NaN results; the stream is a
        # pure function of the cell, so every policy faces the same faults.
        problem = FaultInjectionProblem(
            base,
            crash_rate=fault_rate / 2,
            nan_rate=fault_rate / 2,
            rng=_fault_seed(circuit, batch, fault_rate, seed),
        )
    label = f"{policy_family(policy).display}-{batch}"
    algorithm = make_algorithm(
        label,
        problem,
        rng=seed,
        n_init=scale.n_init,
        max_evals=scale.max_evals,
        acq_candidates=scale.acq_candidates,
        acq_restarts=scale.acq_restarts,
    )
    result = algorithm.run()
    return CellResult(
        policy=policy,
        circuit=circuit,
        batch=batch,
        fault_rate=fault_rate,
        seed=seed,
        best_fom=float(result.best_fom),
        regret=float(base.regret(result.best_fom)),
        n_evaluations=int(result.n_evaluations),
        n_failures=int(result.n_failures),
        wall_clock=float(result.wall_clock),
    )


def run_tournament(scale: TournamentScale, *, progress=None) -> list[CellResult]:
    """Run the whole grid; deterministic given the scale definition.

    ``progress`` is an optional callable receiving (completed, total,
    last-cell) after every run — the CLI uses it for a live line.
    """
    cells = [
        (policy, circuit, batch, fault_rate, seed)
        for circuit in scale.circuits
        for batch in scale.batch_sizes
        for fault_rate in scale.fault_rates
        for seed in range(scale.n_seeds)
        for policy in scale.policies
    ]
    results: list[CellResult] = []
    for i, spec in enumerate(cells):
        result = run_cell(*spec, scale)
        results.append(result)
        if progress is not None:
            progress(i + 1, len(cells), result)
    return results


# ------------------------------------------------------------------ reports
def _by_policy(results) -> dict[str, list[CellResult]]:
    grouped: dict[str, list[CellResult]] = {}
    for r in results:
        grouped.setdefault(r.policy, []).append(r)
    return grouped


def paired_comparisons(
    results, *, baseline: str = "hallucinate"
) -> dict[str, dict]:
    """Paired-seed regret stats of every policy against ``baseline``.

    Cells are matched on (circuit, batch, fault_rate, seed); for each policy
    the returned stats are over ``regret(policy) - regret(baseline)`` on the
    matched cells: negative means the policy beat the baseline there.
    """
    grouped = _by_policy(results)
    base_cells = {r.cell_key: r for r in grouped.get(baseline, ())}
    out: dict[str, dict] = {}
    for policy, cells in grouped.items():
        if policy == baseline:
            continue
        diffs = [
            r.regret - base_cells[r.cell_key].regret
            for r in cells
            if r.cell_key in base_cells
        ]
        if not diffs:
            continue
        out[policy] = {
            "n": len(diffs),
            "mean_diff": statistics.fmean(diffs),
            "wins": sum(1 for d in diffs if d < 0),
            "losses": sum(1 for d in diffs if d > 0),
            "ties": sum(1 for d in diffs if d == 0),
        }
    return out


def rank_table(results, *, baseline: str = "hallucinate") -> list[dict]:
    """Ranked per-policy summary rows, best mean regret first."""
    grouped = _by_policy(results)
    paired = paired_comparisons(results, baseline=baseline)
    rows = []
    for policy, cells in grouped.items():
        regrets = [r.regret for r in cells]
        row = {
            "policy": policy,
            "n_runs": len(cells),
            "mean_regret": statistics.fmean(regrets),
            "median_regret": statistics.median(regrets),
            "mean_failures": statistics.fmean([r.n_failures for r in cells]),
        }
        versus = paired.get(policy)
        if policy == baseline:
            row["vs_baseline"] = "baseline"
        elif versus is None:
            row["vs_baseline"] = "-"
        else:
            row["vs_baseline"] = (
                f"{versus['mean_diff']:+.3g} "
                f"({versus['wins']}W/{versus['losses']}L/{versus['ties']}T)"
            )
        rows.append(row)
    rows.sort(key=lambda r: r["mean_regret"])
    for rank, row in enumerate(rows, start=1):
        row["rank"] = rank
    return rows


def render_report(scale: TournamentScale, results) -> str:
    """Human-readable ranking table for the CLI / bench output."""
    rows = [
        [
            row["rank"],
            row["policy"],
            row["n_runs"],
            f"{row['mean_regret']:.4g}",
            f"{row['median_regret']:.4g}",
            f"{row['mean_failures']:.2f}",
            row["vs_baseline"],
        ]
        for row in rank_table(results)
    ]
    grid = (
        f"{len(scale.policies)} policies x {len(scale.circuits)} circuits x "
        f"{len(scale.batch_sizes)} batches x {len(scale.fault_rates)} fault "
        f"rates x {scale.n_seeds} seeds"
    )
    return format_table(
        ["rank", "policy", "runs", "mean regret", "median", "mean fails",
         "paired dregret vs hallucinate"],
        rows,
        title=f"pending-policy tournament [{scale.name}]: {grid}",
    )


# ------------------------------------------------------------------- checks
def check_tournament(scale: TournamentScale, results) -> None:
    """Assert the harness ran the full grid and is seed-reproducible."""
    expected = (
        len(scale.policies) * len(scale.circuits) * len(scale.batch_sizes)
        * len(scale.fault_rates) * scale.n_seeds
    )
    assert len(results) == expected, (
        f"expected {expected} cells, ran {len(results)}"
    )
    for r in results:
        assert r.n_evaluations == scale.max_evals, (
            f"cell {r} spent {r.n_evaluations} != {scale.max_evals} budget"
        )
    # Paired seeds: every policy saw exactly the same matched cells.
    keysets = {
        policy: {r.cell_key for r in cells}
        for policy, cells in _by_policy(results).items()
    }
    reference = next(iter(keysets.values()))
    assert all(keys == reference for keys in keysets.values()), (
        "policies ran on mismatched cell grids; paired comparison impossible"
    )
    # Reproducibility: rerunning one cell gives the identical result.
    first = results[0]
    rerun = run_cell(
        first.policy, first.circuit, first.batch, first.fault_rate,
        first.seed, scale,
    )
    assert rerun == first, f"cell rerun diverged: {rerun} != {first}"
