"""repro — reproduction of *Search on a Line with Faulty Robots*.

Czyzowicz, Kranakis, Krizanc, Narayanan, Opatrny — PODC 2016
(DOI 10.1145/2933057.2933102).

``n`` unit-speed robots search an infinite line for a target at unknown
distance at least 1 from their shared start; up to ``f`` robots are
faulty (they traverse but never detect).  This package implements:

* the paper's **proportional schedule algorithms** ``A(n, f)`` with
  competitive ratio ``((4f+4)/n)^((2f+2)/n) ((4f+4)/n-2)^(1-(2f+2)/n)+1``
  (Theorem 1), optimal at ``n = f+1`` and asymptotically optimal at
  ``n = 2f+1``;
* the **trivial ratio-1 algorithm** for ``n >= 2f+2`` and the classic
  baselines (doubling, group doubling);
* a **continuous-time simulator** measuring competitive ratios of
  arbitrary trajectory fleets under worst-case faults;
* the **Theorem 2 lower bound** both as a root solve and as an
  executable adversary game;
* experiment harnesses regenerating **Table 1 and Figure 5** (plus the
  illustrative Figures 1-4);
* a **Byzantine confirmation layer** (arXiv:1611.08209): claims commit
  only after ``f + 1`` confirming votes, with the closed-form
  ``2 rho + 1`` commit-time bound and lying-robot chaos campaigns;
* an **expected-time objective** for probabilistic detection faults
  (arXiv:2303.15608);
* a **problem-variant subsystem** (:mod:`repro.variants`): p-faulty
  search on a half-line with its optimal expansion ratio
  (arXiv:2002.07797) and faulty-majority search-and-evacuation with a
  gather phase (arXiv:2605.08355), both dispatchable from chaos
  campaigns via ``ScenarioSpec.variant``.

Quickstart::

    from repro import ProportionalAlgorithm, measure_competitive_ratio

    algorithm = ProportionalAlgorithm(n=3, f=1)
    print(algorithm.theoretical_competitive_ratio())   # 5.233...
    print(measure_competitive_ratio(algorithm).value)  # same, measured
"""

from repro._version import __version__
from repro.async_sched import (
    ActivationScheduler,
    AdversarialScheduler,
    AsyncScheduler,
    EventEngine,
    FsyncScheduler,
    SsyncScheduler,
    run_degradation_sweep,
    scheduler_from_spec,
)
from repro.batch import BatchEvaluator, compile_trajectory
from repro.baselines import (
    DelayedGroupDoubling,
    GroupDoubling,
    SingleRobotDoubling,
    SplitDoubling,
    TwoGroupAlgorithm,
)
from repro.byzantine import (
    ByzantineOutcome,
    ByzantineSearchSimulation,
    ConfirmationProtocol,
    simulate_byzantine_search,
)
from repro.core import (
    ExpectedTimeEstimate,
    Regime,
    SearchParameters,
    algorithm_competitive_ratio,
    asymptotic_cr,
    byzantine_confirmation_bound,
    byzantine_quorum,
    competitive_ratio,
    evacuation_feasible,
    evacuation_ratio_bound,
    expected_competitive_ratio,
    expected_detection_time,
    halfline_expected_ratio,
    halfline_expected_time,
    lower_bound,
    max_fault_budget,
    min_byzantine_fleet,
    min_evacuation_fleet,
    min_fleet_size,
    odd_critical_cr,
    optimal_beta,
    optimal_expansion_factor,
    optimal_halfline_gamma,
    optimal_halfline_ratio,
    proportionality_ratio,
    schedule_competitive_ratio,
    theorem2_lower_bound,
)
from repro.errors import (
    AdversaryError,
    BatchError,
    CampaignError,
    ExperimentError,
    InvalidParameterError,
    InvariantViolationError,
    JournalError,
    LineSearchError,
    ScenarioTimeoutError,
    ScheduleError,
    SimulationError,
    TrajectoryError,
    WorkerCrashError,
)
from repro.geometry import Cone, SpaceTimePoint
from repro.lowerbound import AdversaryWitness, TargetLadder, TheoremTwoGame
from repro.observability import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    disable_telemetry,
    enable_telemetry,
)
from repro.parity import run_async_parity, run_variant_parity
from repro.perf import (
    compare_reports,
    profile_spans,
    run_suite,
)
from repro.robots import (
    AdversarialFaults,
    BehavioralFaults,
    ByzantineAdversary,
    ByzantineFalseAlarmFault,
    CrashDetectionFault,
    CrashStopFault,
    FaultBehavior,
    FaultModel,
    FixedFaults,
    Fleet,
    ProbabilisticDetectionFault,
    RandomFaults,
    Robot,
)
from repro.robustness import (
    CampaignExecutor,
    CampaignJournal,
    CampaignReport,
    RetryPolicy,
    ScenarioSpec,
    chaos_scenarios,
    run_campaign,
)
from repro.schedule import (
    ByzantineConfirmationAlgorithm,
    CustomBetaAlgorithm,
    HalfLineAlgorithm,
    ProportionalAlgorithm,
    ProportionalSchedule,
    SearchAlgorithm,
)
from repro.simulation import (
    CompetitiveRatioEstimator,
    SearchSimulation,
    measure_competitive_ratio,
    simulate_search,
)
from repro.trajectory import (
    ConeZigZag,
    DoublingTrajectory,
    GeometricZigZag,
    HalfLineZigZag,
    LinearTrajectory,
    PiecewiseTrajectory,
    Trajectory,
    ZigZagTrajectory,
)
from repro.variants import (
    EvacuationVariant,
    HalfLineVariant,
    LineVariant,
    ProblemVariant,
    run_halfline_sweep,
    variant_for,
)

__all__ = [
    "ActivationScheduler",
    "AdversarialFaults",
    "AdversarialScheduler",
    "AdversaryError",
    "AdversaryWitness",
    "AsyncScheduler",
    "BatchError",
    "BatchEvaluator",
    "BehavioralFaults",
    "ByzantineAdversary",
    "ByzantineConfirmationAlgorithm",
    "ByzantineFalseAlarmFault",
    "ByzantineOutcome",
    "ByzantineSearchSimulation",
    "CampaignError",
    "CampaignExecutor",
    "CampaignJournal",
    "CampaignReport",
    "CompetitiveRatioEstimator",
    "Cone",
    "ConeZigZag",
    "ConfirmationProtocol",
    "CrashDetectionFault",
    "CrashStopFault",
    "CustomBetaAlgorithm",
    "DelayedGroupDoubling",
    "DoublingTrajectory",
    "EvacuationVariant",
    "EventEngine",
    "ExpectedTimeEstimate",
    "ExperimentError",
    "FaultBehavior",
    "FaultModel",
    "FixedFaults",
    "Fleet",
    "FsyncScheduler",
    "GeometricZigZag",
    "GroupDoubling",
    "HalfLineAlgorithm",
    "HalfLineVariant",
    "HalfLineZigZag",
    "InvalidParameterError",
    "InvariantViolationError",
    "JournalError",
    "LineSearchError",
    "LineVariant",
    "LinearTrajectory",
    "MetricsRegistry",
    "PiecewiseTrajectory",
    "ProbabilisticDetectionFault",
    "ProblemVariant",
    "ProportionalAlgorithm",
    "ProportionalSchedule",
    "RandomFaults",
    "Regime",
    "RetryPolicy",
    "Robot",
    "ScenarioSpec",
    "ScenarioTimeoutError",
    "ScheduleError",
    "SearchAlgorithm",
    "SearchParameters",
    "SearchSimulation",
    "SimulationError",
    "SingleRobotDoubling",
    "SpaceTimePoint",
    "SplitDoubling",
    "SsyncScheduler",
    "TargetLadder",
    "Telemetry",
    "TheoremTwoGame",
    "Tracer",
    "Trajectory",
    "TrajectoryError",
    "TwoGroupAlgorithm",
    "WorkerCrashError",
    "ZigZagTrajectory",
    "__version__",
    "algorithm_competitive_ratio",
    "asymptotic_cr",
    "byzantine_confirmation_bound",
    "byzantine_quorum",
    "chaos_scenarios",
    "compare_reports",
    "competitive_ratio",
    "compile_trajectory",
    "disable_telemetry",
    "enable_telemetry",
    "evacuation_feasible",
    "evacuation_ratio_bound",
    "expected_competitive_ratio",
    "expected_detection_time",
    "halfline_expected_ratio",
    "halfline_expected_time",
    "lower_bound",
    "max_fault_budget",
    "measure_competitive_ratio",
    "min_byzantine_fleet",
    "min_evacuation_fleet",
    "min_fleet_size",
    "odd_critical_cr",
    "optimal_beta",
    "optimal_expansion_factor",
    "optimal_halfline_gamma",
    "optimal_halfline_ratio",
    "profile_spans",
    "proportionality_ratio",
    "run_async_parity",
    "run_campaign",
    "run_degradation_sweep",
    "run_halfline_sweep",
    "run_suite",
    "run_variant_parity",
    "schedule_competitive_ratio",
    "scheduler_from_spec",
    "simulate_byzantine_search",
    "simulate_search",
    "theorem2_lower_bound",
    "variant_for",
]
