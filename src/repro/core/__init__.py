"""EasyBO core: the paper's asynchronous batch BO plus every compared algorithm.

Public surface:

* :func:`make_algorithm` — the paper-label factory: a label ("EasyBO-5",
  "pBO-3", "LCB", "cEasyBO-3", "DE", ...) is the only way to name what runs.
* :class:`EasyBO` — high-level facade (async / sync / ablations).
* :class:`Campaign` — the ask/tell optimizer core :class:`BODriverBase`
  loops over (:func:`make_campaign` / :func:`resume_campaign` for
  standalone use).
* Pending-point policies (:mod:`repro.core.pending`): how asynchronous
  proposals account for in-flight points — ``"hallucinate"`` (Eq. 9,
  default), ``"lp"``, ``"pessimistic"``, ``"none"``.
* Acquisitions (§II-B/III-B): UCB, EI, PI, the weighted rule (Eq. 7-9), the
  EasyBO weight sampler, the pHCBO coverage penalty.
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
from repro.core.bo import BODriverBase
from repro.core.campaign import (
    Campaign,
    CampaignError,
    CampaignExhausted,
    make_campaign,
    resume_campaign,
)
from repro.core.constrained import ConstrainedProblem, ConstraintSpec
from repro.core.doe import random_design
from repro.core.easybo import EasyBO, make_algorithm
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
from repro.core.problem import EvaluationResult, FunctionProblem, Problem
from repro.core.results import RunResult, RunSummary, summarize_runs
from repro.core.surrogate import (
    HallucinatedView,
    SurrogateSession,
)

__all__ = [
    "EasyBO",
    "make_algorithm",
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
    "BODriverBase",
    "Acquisition",
    "UpperConfidenceBound",
    "ExpectedImprovement",
    "ProbabilityOfImprovement",
    "WeightedAcquisition",
    "HighCoveragePenalty",
    "sample_easybo_weight",
    "pbo_weights",
    "EASYBO_LAMBDA",
    "ConstrainedProblem",
    "ConstraintSpec",
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
    "save_runs",
    "load_runs",
    "run_to_dict",
    "run_from_dict",
    "random_design",
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
