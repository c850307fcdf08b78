"""Fault injection, chaos campaigns, and graceful degradation.

The robustness layer hardens the reproduction beyond the paper's single
fault model: it runs large seeded batches of scenarios across the whole
fault taxonomy (:mod:`repro.robots.behaviors`), isolates every failure
into a structured, replayable report entry instead of aborting the
sweep, and cross-checks engine outputs against the runtime invariants
in :mod:`repro.simulation.invariants`.

Entry points:

* :func:`~repro.robustness.campaign.chaos_scenarios` — build the seeded
  grid of fleets × targets × fault specs;
* :func:`~repro.robustness.campaign.run_campaign` — execute with
  per-scenario fault isolation and a configurable retry policy;
* :mod:`~repro.robustness.plan` — the rules for a spec, in one place:
  ``validate_spec`` and the ``plan_for`` engine table;
* :class:`~repro.robustness.executor.CampaignExecutor` — the resilient
  execution substrate: parallel worker processes, watchdog timeouts,
  crash recovery, and a crash-safe journal with resume;
* :class:`~repro.robustness.journal.CampaignJournal` — the durable
  JSONL record a killed campaign restarts from;
* ``linesearch chaos`` — the same from the command line
  (``--jobs``, ``--timeout``, ``--retries``, ``--journal``,
  ``--resume``).
"""

from repro.robustness.campaign import (
    FAULT_KINDS,
    PROTOCOLS,
    CampaignReport,
    Scenario,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    chaos_scenarios,
    run_campaign,
    scenario_key,
)
from repro.robustness.executor import CampaignExecutor, RetryPolicy
from repro.robustness.journal import CampaignJournal

__all__ = [
    "FAULT_KINDS",
    "PROTOCOLS",
    "CampaignExecutor",
    "CampaignJournal",
    "CampaignReport",
    "RetryPolicy",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "build_scenario",
    "chaos_scenarios",
    "run_campaign",
    "scenario_key",
]
