"""Evaluation scheduling: the wall-clock side of the reproduction.

* :class:`PoolBase` — the pool contract's shared core (task table, worker
  choice, leases, completions, trace, restore); every backend inherits it.
* :class:`VirtualWorkerPool` — deterministic simulated-clock pool; the
  backend behind every Table/Figure bench (see DESIGN.md §2 for why).
* :class:`ThreadWorkerPool` — real concurrent backend with the same protocol.
* :class:`~repro.distributed.ProcessWorkerPool` — real OS-process backend
  (socket RPC, heartbeats), reachable here via :func:`pool_factory_by_name`.
* :class:`ExecutionTrace` — per-evaluation records and derived statistics
  (makespan, utilization, best-FOM-versus-time, Gantt rows).
* Cost models calibrated to the paper's tables (:mod:`repro.sched.durations`).
"""

from repro.sched.durations import ConstantCostModel, CostModel, LognormalCostModel
from repro.sched.events import Event, EventQueue
from repro.sched.executor import ThreadWorkerPool
from repro.sched.trace import EvalRecord, ExecutionTrace, PoolTelemetry, SurrogateStats
from repro.sched.workers import Completion, PoolBase, VirtualWorkerPool

__all__ = [
    "CostModel",
    "ConstantCostModel",
    "LognormalCostModel",
    "Event",
    "EventQueue",
    "EvalRecord",
    "ExecutionTrace",
    "PoolTelemetry",
    "SurrogateStats",
    "Completion",
    "PoolBase",
    "VirtualWorkerPool",
    "ThreadWorkerPool",
    "POOL_BACKENDS",
    "pool_factory_by_name",
]

#: Names accepted by :func:`pool_factory_by_name` (and the CLI ``--pool``).
POOL_BACKENDS = ("virtual", "thread", "process")


def pool_factory_by_name(name: str):
    """Resolve a pool backend name to a driver-compatible factory.

    The returned callable has the ``(problem, n_workers, *, policy=None)``
    signature every driver's ``pool_factory`` hook expects.  ``"process"``
    imports the distributed subsystem lazily — the other backends stay
    import-light.
    """
    name = str(name).lower()
    if name == "virtual":
        return VirtualWorkerPool
    if name == "thread":
        return ThreadWorkerPool
    if name == "process":
        from repro.distributed import ProcessWorkerPool

        return ProcessWorkerPool
    raise ValueError(f"unknown pool backend {name!r}; choose from {POOL_BACKENDS}")
