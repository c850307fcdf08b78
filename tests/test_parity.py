"""The shared parity harness: grid validation and the spec cross product.

The seeded rows (batch, FSYNC, line variant) have their own suites
under ``tests/{batch,async_sched,variants}``.  Here the same exact
agreement rule (:attr:`repro.parity.ParityCase.agree`) is driven by a
Hypothesis strategy over the whole ``ScenarioSpec`` space of the plan
table: every fault model, protocol and problem variant.
"""

import dataclasses
import inspect
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidParameterError, LineSearchError
from repro.parity import (
    ParityCase,
    run_async_parity,
    run_parity_harness,
    run_variant_parity,
)
from repro.robustness.campaign import PROTOCOLS, ScenarioSpec, build_scenario
from repro.robustness.plan import VARIANT_NAMES
from repro.variants import variant_for

RUNNERS = (run_parity_harness, run_async_parity, run_variant_parity)

FAULTS = (
    "none",
    "adversarial",
    "fixed",
    "random",
    "crash_stop:2.0",
    "byzantine:0.5;1.5",
    "probabilistic:0.7",
)


@pytest.mark.parametrize("runner", RUNNERS, ids=lambda r: r.__name__)
def test_bad_grid_rejected_naming_the_input(runner):
    for x_max in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match=f"x_max.*{x_max}"):
            runner(pairs=[(3, 1)], targets_per_pair=1, x_max=x_max)
    if "fault_kinds" in inspect.signature(runner).parameters:
        # refused before the valid "none" point runs
        with pytest.raises(InvalidParameterError, match="crash_stop:abc"):
            runner(pairs=[(3, 1)], fault_kinds=("none", "crash_stop:abc"))


@st.composite
def scenario_specs(draw):
    """Specs over f in 0..3, n in f+1..2f+3, every variant, protocol and
    fault kind, |x| in [1, 64] (positive on the half-line), any seed."""
    f = draw(st.integers(0, 3))
    n = draw(st.integers(f + 1, 2 * f + 3))
    variant = draw(st.sampled_from(VARIANT_NAMES))
    target = draw(st.floats(1.0, 64.0))
    if variant != "halfline" and draw(st.booleans()):
        target = -target
    return ScenarioSpec(
        n=n,
        f=f,
        target=target,
        fault=draw(st.sampled_from(FAULTS)),
        seed=draw(st.integers(0, 2**32 - 1)),
        protocol=draw(st.sampled_from(PROTOCOLS)),
        variant=variant,
    )


def _run(spec, method="event"):
    """``(detection_time, detecting_robot)``, or the error class raised."""
    try:
        outcome = variant_for(spec.variant).run(
            build_scenario(spec, method=method), check_invariants=False
        )
    except LineSearchError as exc:
        return type(exc)
    return outcome.detection_time, outcome.detecting_robot


def _assert_agree(spec, oracle, candidate):
    if isinstance(oracle, type) or isinstance(candidate, type):
        assert oracle is candidate, (spec, oracle, candidate)
        return
    case = ParityCase(
        spec.n, spec.f, spec.target, spec.fault,
        oracle[0], candidate[0], oracle[1], candidate[1],
    )
    assert case.agree, (spec, case.describe())


@given(scenario_specs(), st.sampled_from(("0.25", "0.5", "1")))
def test_fsync_mode_reproduces_sync_mode(spec, quantum):
    scheduled = dataclasses.replace(spec, mode=f"event:fsync:{quantum}")
    _assert_agree(spec, _run(spec), _run(scheduled))


@given(scenario_specs())
def test_batch_method_reproduces_event_method(spec):
    _assert_agree(spec, _run(spec), _run(spec, method="batch"))
