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
    CLOSED_FORM_RTOL,
    ParityCase,
    run_async_parity,
    run_closed_form_parity,
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


class TestClosedFormRow:
    """Theorem 1 / Lemma 4 against the exact-ratio kernel."""

    def test_every_table1_turning_point_matches(self):
        from repro.batch.compile import compile_fleet
        from repro.batch.kernels import breakpoints
        from repro.robots.fleet import Fleet
        from repro.schedule import algorithm_for

        from repro.experiments.table1 import PAPER_TABLE1

        pairs = [(n, f) for n, f, *_ in PAPER_TABLE1 if n < 2 * f + 2]
        report = run_closed_form_parity(x_max=100.0)
        assert report.passed, report.describe()
        assert "within rtol=1e-12" in report.describe()
        assert report.regimes == sorted(pairs) and len(pairs) == 10
        for n, f in pairs:
            fleet = Fleet.from_algorithm(algorithm_for(n, f))
            turns = breakpoints(
                compile_fleet(fleet.trajectories, -100.0, 100.0).trajectories,
                1.0, 100.0,
            )
            lemma4 = [
                c for c in report.cases
                if (c.n, c.f, c.fault) == (n, f, "lemma4")
            ]
            assert sorted(c.target for c in lemma4) == sorted(turns)
            theorem1 = [
                c for c in report.cases
                if (c.n, c.f, c.fault) == (n, f, "theorem1")
            ]
            assert len(theorem1) == 1

    def test_a_kernel_off_by_1e_11_fails(self, monkeypatch):
        import repro.batch.kernels as kernels

        original = kernels.ratio_candidates

        def skewed(*args):
            return [(x, t * (1 + 1e-11), s) for x, t, s in original(*args)]

        monkeypatch.setattr(kernels, "ratio_candidates", skewed)
        report = run_closed_form_parity(pairs=[(3, 1)], x_max=20.0)
        assert len(report.mismatches()) == report.total > 1

    def test_non_proportional_regime_rejected(self):
        with pytest.raises(InvalidParameterError, match="proportional"):
            run_closed_form_parity(pairs=[(4, 1)])

    def test_tolerance_does_not_touch_the_exact_rows(self):
        case = ParityCase(3, 1, 2.0, None, 1.0, 1.0 + 1e-15)
        assert not case.agree
        assert dataclasses.replace(case, rtol=CLOSED_FORM_RTOL).agree

    def test_an_infinite_time_matches_only_itself_under_tolerance(self):
        case = ParityCase(3, 1, 2.0, None, math.inf, 1e300, rtol=0.5)
        assert not case.agree
        assert not dataclasses.replace(
            case, oracle_time=1e300, candidate_time=math.inf
        ).agree
        assert dataclasses.replace(case, candidate_time=math.inf).agree
