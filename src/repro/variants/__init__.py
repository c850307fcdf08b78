"""Problem variants: alternative domains, termination predicates, objectives.

The base reproduction searches the whole line and terminates on the
first reliable detection.  The adjacent literature varies each axis of
that problem statement, and this subpackage makes the axes explicit: a
:class:`~repro.variants.base.ProblemVariant` is a *domain* (which
schedules are admissible), a *termination predicate* (when the task
counts as done), and an *objective* (what number the run is scored by).

Concrete variants:

* ``line`` (:mod:`repro.variants.line`) — the source paper's problem,
  delegating to the existing engines; the parity harness
  (:func:`repro.parity.run_variant_parity`) pins it bit-exact against direct
  engine invocation;
* ``halfline`` (:mod:`repro.variants.halfline`) — p-faulty search on a
  ray (arXiv:2002.07797): one-sided schedules that never cross the
  origin, scored by the expected detection time of
  :mod:`repro.core.expected_time` and validated against the closed
  forms of :mod:`repro.core.halfline`;
* ``evacuation`` (:mod:`repro.variants.evacuation`) — search-and-
  evacuation with a near majority of faulty agents (arXiv:2605.08355):
  commit via the Byzantine confirmation machinery, then a gather phase
  with per-robot arrival events; feasibility and ratio bounds in
  :mod:`repro.core.evacuation`.

Campaign specs select a variant via ``ScenarioSpec.variant`` (default
``"line"``, omitted from digests so existing scenario keys are
unchanged); :func:`~repro.variants.base.variant_for` is the registry.
"""

from repro.variants.base import VARIANT_NAMES, ProblemVariant, variant_for
from repro.variants.evacuation import (
    EvacuationOutcome,
    EvacuationSearchSimulation,
    EvacuationVariant,
)
from repro.variants.halfline import (
    HalfLineSweepPoint,
    HalfLineSweepReport,
    HalfLineVariant,
    halfline_expected_estimate,
    halfline_fleet,
    run_halfline_sweep,
)
from repro.variants.invariants import (
    audit_evacuation_outcome,
    check_evacuation_outcome,
)
from repro.variants.line import LineVariant

__all__ = [
    "EvacuationOutcome",
    "EvacuationSearchSimulation",
    "EvacuationVariant",
    "HalfLineSweepPoint",
    "HalfLineSweepReport",
    "HalfLineVariant",
    "LineVariant",
    "ProblemVariant",
    "VARIANT_NAMES",
    "audit_evacuation_outcome",
    "check_evacuation_outcome",
    "halfline_expected_estimate",
    "halfline_fleet",
    "run_halfline_sweep",
    "variant_for",
]
