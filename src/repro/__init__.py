"""EasyBO: Efficient Asynchronous Batch Bayesian Optimization for Analog
Circuit Synthesis — a full reproduction of Zhang et al., DAC 2020.

Quick start::

    from repro import EasyBO
    from repro.circuits import OpAmpProblem

    result = EasyBO(OpAmpProblem(), batch_size=5, rng=0).optimize()
    print(result.best_fom)

Subpackages
-----------
``repro.core``
    The BO algorithms, each named by its paper label and built by
    ``make_algorithm``: EasyBO (async, Alg. 1), synchronous batch variants
    (pBO, pHCBO, EasyBO-S/SP, BUCB, LP), sequential baselines (EI/LCB/PI).
``repro.gp``
    Gaussian-process regression built from scratch (SE-ARD kernel, ML-II).
``repro.spice``
    A from-scratch MNA circuit simulator (DC / AC / transient) standing in
    for HSPICE.
``repro.circuits``
    The paper's two testbenches (op-amp, class-E PA) and synthetic functions.
``repro.sched``
    Worker pools: deterministic simulated clock and real thread backend.
``repro.distributed``
    Process-based evaluation pool: one OS process per worker, socket RPC,
    heartbeats, crash supervision (``--pool process`` on the CLI).
``repro.baselines``
    Differential evolution (random search is the ``Random`` label).
``repro.obs``
    Structured observability: hierarchical run tracing, the process-wide
    metrics registry, and profiling hooks (``tracer=`` / ``metrics=`` on
    the BO drivers; ``python -m repro trace`` to inspect).
"""

from repro.core import (
    Campaign,
    EasyBO,
    EvaluationResult,
    FailurePolicy,
    FaultInjectionProblem,
    Problem,
    RunResult,
    SimulationError,
    make_algorithm,
    make_campaign,
    resume,
    resume_campaign,
    summarize_runs,
)
from repro.distributed import ProcessWorkerPool
from repro.obs import MetricsRegistry, Observability, Tracer, render_trace

__version__ = "0.1.0"

__all__ = [
    "EasyBO",
    "make_algorithm",
    "Campaign",
    "make_campaign",
    "resume_campaign",
    "Problem",
    "EvaluationResult",
    "FailurePolicy",
    "FaultInjectionProblem",
    "SimulationError",
    "RunResult",
    "resume",
    "summarize_runs",
    "ProcessWorkerPool",
    "MetricsRegistry",
    "Observability",
    "Tracer",
    "render_trace",
    "__version__",
]
