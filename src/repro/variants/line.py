"""The ``line`` variant: the source paper's problem, as a variant.

The whole-line, first-reliable-detection problem that the rest of the
library implements is itself a member of the variant family — the
identity member.  :class:`LineVariant` realizes specs with the regime
dispatch and the campaign's fault DSL, and runs them on the engine
:mod:`repro.robustness.plan` names, so a spec with ``variant="line"``
behaves bit-for-bit like one from before variants existed.  The parity
harness (:func:`repro.parity.run_variant_parity`) pins that claim
against direct engine invocation on a seeded grid.
"""

from __future__ import annotations

from typing import Any, Callable, Tuple

from repro.schedule import algorithm_for
from repro.schedule.byzantine import ByzantineConfirmationAlgorithm
from repro.variants.base import ProblemVariant

__all__ = ["LineVariant"]


class LineVariant(ProblemVariant):
    """Whole-line search, first reliable detection terminates.

    Examples:
        >>> from repro.robustness.campaign import ScenarioSpec, build_scenario
        >>> variant = LineVariant()
        >>> fleet, model = variant.realize(ScenarioSpec(3, 1, 2.0, "none"))
        >>> fleet.size
        3
        >>> outcome = variant.run(
        ...     build_scenario(ScenarioSpec(3, 1, 2.0, "none")),
        ...     check_invariants=False,
        ... )
        >>> round(outcome.detection_time, 9)
        3.679894733
    """

    name = "line"

    def algorithm(self, spec: Any) -> Tuple[Callable[..., Any], Tuple]:
        if spec.protocol == "confirmation":
            return ByzantineConfirmationAlgorithm, (spec.n, spec.f)
        return algorithm_for, (spec.n, spec.f)
