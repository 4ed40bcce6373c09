"""EasyBO core: the paper's asynchronous batch BO plus every compared driver.

Public surface:

* :class:`EasyBO` — high-level facade (async / sync / ablations).
* :class:`Campaign` — the ask/tell optimizer core every driver loops over
  (:func:`make_campaign` / :func:`resume_campaign` for standalone use).
* Drivers: :class:`SequentialBO`, :class:`SynchronousBatchBO`,
  :class:`AsynchronousBatchBO`.
* Pending-point policies (:mod:`repro.core.pending`): how asynchronous
  proposals account for in-flight points — ``"hallucinate"`` (Eq. 9,
  default), ``"lp"``, ``"pessimistic"``, ``"none"``.
* Acquisitions (§II-B/III-B): UCB, EI, PI, the weighted rule (Eq. 7-9), the
  EasyBO weight sampler, the pHCBO coverage penalty.
* :func:`make_algorithm` — paper-label registry used by the benches.
* Plumbing: :class:`Problem`, :class:`EvaluationResult`, :class:`RunResult`,
  :func:`summarize_runs`, initial designs, the acquisition maximizer, and
  :class:`SurrogateSession`.
* Crash safety: :class:`JournalWriter` (write-ahead run journal) and
  :func:`resume` (replay + continue after a crash).
"""

from repro.core.acquisition import (
    EASYBO_LAMBDA,
    Acquisition,
    ExpectedImprovement,
    HighCoveragePenalty,
    ProbabilityOfImprovement,
    UpperConfidenceBound,
    WeightedAcquisition,
    pbo_weights,
    sample_easybo_weight,
)
from repro.core.async_batch import AsynchronousBatchBO
from repro.core.bo import BODriverBase, SequentialBO
from repro.core.campaign import (
    Campaign,
    CampaignError,
    CampaignExhausted,
    make_campaign,
    resume_campaign,
)
from repro.core.constrained import ConstrainedEasyBO, ConstrainedProblem, ConstraintSpec
from repro.core.cost_aware import CostAwareEasyBO
from repro.core.doe import latin_hypercube, random_design
from repro.core.easybo import ALGORITHM_FAMILIES, EasyBO, make_algorithm
from repro.core.faults import (
    FailurePolicy,
    FaultInjectionProblem,
    KillSwitchJournal,
    KillSwitchProblem,
    ProcessKilled,
    SimulationError,
    run_with_policy,
)
from repro.core.journal import (
    JournalError,
    JournalWriter,
    read_journal,
    recover_journal,
)
from repro.core.optimizers import maximize_acquisition
from repro.core.pending import (
    PENDING_POLICIES,
    HallucinatePolicy,
    LocalPenalisationPolicy,
    PendingPolicy,
    PessimisticPolicy,
    StandardPolicy,
    make_pending_policy,
)
from repro.core.persistence import load_runs, run_from_dict, run_to_dict, save_runs
from repro.core.recovery import resolve_problem, resume
from repro.core.portfolio import PortfolioBO
from repro.core.problem import EvaluationResult, FunctionProblem, Problem
from repro.core.results import RunResult, RunSummary, summarize_runs
from repro.core.surrogate import (
    HallucinatedView,
    SurrogateSession,
)
from repro.core.sync_batch import SYNC_STRATEGIES, SynchronousBatchBO

__all__ = [
    "EasyBO",
    "make_algorithm",
    "ALGORITHM_FAMILIES",
    "Campaign",
    "CampaignError",
    "CampaignExhausted",
    "make_campaign",
    "resume_campaign",
    "PendingPolicy",
    "PENDING_POLICIES",
    "HallucinatePolicy",
    "LocalPenalisationPolicy",
    "PessimisticPolicy",
    "StandardPolicy",
    "make_pending_policy",
    "SequentialBO",
    "SynchronousBatchBO",
    "AsynchronousBatchBO",
    "BODriverBase",
    "SYNC_STRATEGIES",
    "Acquisition",
    "UpperConfidenceBound",
    "ExpectedImprovement",
    "ProbabilityOfImprovement",
    "WeightedAcquisition",
    "HighCoveragePenalty",
    "sample_easybo_weight",
    "pbo_weights",
    "EASYBO_LAMBDA",
    "ConstrainedEasyBO",
    "ConstrainedProblem",
    "ConstraintSpec",
    "CostAwareEasyBO",
    "Problem",
    "FunctionProblem",
    "EvaluationResult",
    "FailurePolicy",
    "FaultInjectionProblem",
    "SimulationError",
    "run_with_policy",
    "RunResult",
    "RunSummary",
    "summarize_runs",
    "SurrogateSession",
    "HallucinatedView",
    "maximize_acquisition",
    "PortfolioBO",
    "save_runs",
    "load_runs",
    "run_to_dict",
    "run_from_dict",
    "random_design",
    "latin_hypercube",
    "JournalWriter",
    "JournalError",
    "read_journal",
    "recover_journal",
    "resume",
    "resolve_problem",
    "ProcessKilled",
    "KillSwitchProblem",
    "KillSwitchJournal",
]
