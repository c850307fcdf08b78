"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`LineSearchError` so that
callers can catch every domain error with a single ``except`` clause while
still being able to distinguish configuration problems from runtime
(simulation) problems.
"""

from __future__ import annotations

__all__ = [
    "LineSearchError",
    "InvalidParameterError",
    "TrajectoryError",
    "ScheduleError",
    "SimulationError",
    "InvariantViolationError",
    "AdversaryError",
    "ExperimentError",
    "CampaignError",
    "CampaignInterrupted",
    "ScenarioTimeoutError",
    "WorkerCrashError",
    "JournalError",
    "BatchError",
]


class LineSearchError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class InvalidParameterError(LineSearchError, ValueError):
    """A parameter is outside its mathematically valid domain.

    Raised, for example, when a cone slope ``beta <= 1`` is requested, when
    ``f >= n``, or when a target closer than the unit minimum distance is
    passed to a competitive-ratio computation.
    """


class TrajectoryError(LineSearchError):
    """A trajectory is malformed or queried outside its defined domain.

    Typical causes: non-monotone time stamps, a segment that would require
    speed greater than 1, or a visit query for a point the trajectory
    provably never reaches within the requested horizon.
    """


class ScheduleError(LineSearchError):
    """A robot schedule violates the proportional-schedule invariants."""


class SimulationError(LineSearchError):
    """The simulation engine reached an inconsistent state."""


class InvariantViolationError(SimulationError):
    """A simulation outcome failed a runtime invariant audit.

    Raised by :mod:`repro.simulation.invariants` when an event log or
    detection time contradicts the model: events out of order, a leg
    faster than unit speed, a robot not starting at the origin, or a
    claimed detection inconsistent with ``T_{f+1}``.  The message lists
    every violated invariant.
    """


class AdversaryError(LineSearchError):
    """The lower-bound adversary could not complete its argument.

    This signals a *library* problem (or a genuinely sub-``alpha``
    algorithm, which Theorem 2 proves impossible); it is distinct from the
    adversary successfully producing a witness.
    """


class ExperimentError(LineSearchError):
    """An experiment was configured inconsistently or failed to run."""


class CampaignError(LineSearchError):
    """The campaign execution substrate itself failed.

    Base class for errors raised *around* a scenario by the resilient
    executor (:mod:`repro.robustness.executor`) — as opposed to errors
    raised *inside* a scenario, which are captured into its
    ``ScenarioResult`` under their own class.
    """


class CampaignInterrupted(CampaignError):
    """A campaign was stopped cooperatively before every scenario ran.

    Raised by :class:`~repro.robustness.executor.CampaignExecutor` when
    a SIGTERM arrives (or a ``stop_check`` callback fires) mid-campaign.
    The journal — when one is configured — has been checkpointed with an
    ``fsync`` before this is raised, so a follow-up run with ``resume``
    continues exactly where this one stopped.  ``report`` carries the
    completed results, ``remaining`` the number of scenarios that never
    ran.
    """

    def __init__(self, message: str, report=None, remaining: int = 0):
        super().__init__(message)
        self.report = report
        self.remaining = remaining


class ScenarioTimeoutError(CampaignError):
    """A scenario exceeded its wall-clock budget and was killed.

    The executor's watchdog terminates the worker process running an
    overdue scenario and records this error on the scenario's result;
    the rest of the sweep continues.
    """


class WorkerCrashError(CampaignError):
    """A worker process died while running a scenario.

    The in-flight scenario is requeued once (excluding the dead
    runner); a second crash records this error on its result.
    """


class JournalError(CampaignError):
    """A campaign journal could not be read or does not match.

    Raised when a resume is requested from a missing or unreadable
    journal file, or when the journal header identifies a format this
    library does not understand.
    """


class BatchError(LineSearchError):
    """The batch evaluation subsystem could not complete a request.

    Raised by :mod:`repro.batch` when a trajectory cannot be compiled
    into segment arrays within the segment budget, or when kernels are
    asked about targets outside the compiled coverage window.
    """
