"""Tests for chaos campaigns: grids, isolation, and the acceptance run."""

from typing import Iterator

import pytest

from repro.errors import InvalidParameterError
from repro.geometry import SpaceTimePoint
from repro.robots import Fleet
from repro.robots.faults import AdversarialFaults, FaultModel
from repro.robustness import (
    CampaignReport,
    Scenario,
    ScenarioSpec,
    build_scenario,
    chaos_scenarios,
    run_campaign,
)
from repro.robustness.campaign import FAULT_KINDS, _fault_model_for
from repro.trajectory import LinearTrajectory, Trajectory


class BrokenFaultModel(FaultModel):
    """Deliberately broken: assigns more faults than its declared budget."""

    def __init__(self):
        super().__init__(fault_budget=1)

    def assign(self, fleet, target):
        return set(range(fleet.size))  # lies about its budget

    def describe(self):
        return "BrokenFaultModel()"


class TeleportingTrajectory(Trajectory):
    """Deliberately inadmissible: jumps faster than unit speed."""

    def vertex_iterator(self) -> Iterator[SpaceTimePoint]:
        yield SpaceTimePoint(0.0, 0.0)
        yield SpaceTimePoint(1.0, 50.0)  # speed 50 — rejected downstream
        yield SpaceTimePoint(100.0, 50.0)

    def covers(self, x: float) -> bool:
        return 0.0 <= x <= 50.0


def broken_model_scenario(seed=1234):
    spec = ScenarioSpec(3, 1, 2.0, fault="adversarial", seed=seed)
    return Scenario(
        spec=spec,
        build=lambda: (
            Fleet.from_trajectories(
                [LinearTrajectory(1 if i % 2 == 0 else -1) for i in range(3)]
            ),
            BrokenFaultModel(),
        ),
    )


def speed_violation_scenario(seed=5678):
    spec = ScenarioSpec(2, 0, 2.0, fault="none", seed=seed)
    return Scenario(
        spec=spec,
        build=lambda: (
            Fleet.from_trajectories(
                [TeleportingTrajectory(), LinearTrajectory(-1)]
            ),
            AdversarialFaults(0),
        ),
    )


class TestScenarioGrid:
    def test_grid_size_is_product(self):
        grid = chaos_scenarios(
            [(3, 1), (4, 2)], [1.0, -2.0, 3.0], ["none", "adversarial"]
        )
        assert len(grid) == 2 * 3 * 2

    def test_grid_is_seed_reproducible(self):
        a = chaos_scenarios([(3, 1)], [1.0, -2.0], seed=9)
        b = chaos_scenarios([(3, 1)], [1.0, -2.0], seed=9)
        assert [s.spec for s in a] == [s.spec for s in b]
        c = chaos_scenarios([(3, 1)], [1.0, -2.0], seed=10)
        assert [s.spec for s in a] != [s.spec for s in c]

    def test_every_fault_kind_realizable(self):
        for kind in FAULT_KINDS:
            spec = ScenarioSpec(4, 2, 1.0, fault=kind, seed=3)
            model = _fault_model_for(spec)
            scenario = build_scenario(spec)
            fleet, built = scenario.build()
            assert fleet.size == 4
            assert built.describe()
            # the flag comes from the kind, without realizing the model
            assert scenario.stochastic == model.is_stochastic

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            _fault_model_for(ScenarioSpec(3, 1, 1.0, fault="gremlins"))

    def test_stochastic_kinds_flagged(self):
        assert build_scenario(ScenarioSpec(3, 1, 1.0, "random", 1)).stochastic
        assert build_scenario(
            ScenarioSpec(3, 1, 1.0, "probabilistic:0.5", 1)
        ).stochastic
        assert not build_scenario(ScenarioSpec(3, 1, 1.0, "fixed", 1)).stochastic


class TestFaultIsolation:
    def test_broken_model_is_isolated_not_raised(self):
        report = run_campaign([broken_model_scenario()])
        assert report.failed == 1
        failure = report.failures()[0]
        assert failure.error == "SimulationError"
        assert failure.spec.seed == 1234

    def test_speed_violation_is_isolated_not_raised(self):
        report = run_campaign([speed_violation_scenario()])
        assert report.failed == 1
        assert report.failures()[0].error == "TrajectoryError"

    def test_healthy_scenarios_unaffected_by_neighbors(self):
        healthy = build_scenario(ScenarioSpec(3, 1, 2.0, "adversarial", 0))
        report = run_campaign(
            [healthy, broken_model_scenario(), healthy]
        )
        assert [r.ok for r in report.results] == [True, False, True]

    def test_stochastic_failure_retried_once(self):
        calls = []

        def flaky_build():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return (
                Fleet.from_trajectories(
                    [LinearTrajectory(1), LinearTrajectory(-1)]
                ),
                AdversarialFaults(0),
            )

        scenario = Scenario(
            spec=ScenarioSpec(2, 0, 1.0, "random", 5),
            build=flaky_build,
            stochastic=True,
        )
        report = run_campaign([scenario])
        assert report.results[0].ok
        assert report.results[0].attempts == 2

    def test_deterministic_failure_not_retried(self):
        report = run_campaign(
            [broken_model_scenario()], retry_stochastic=True
        )
        assert report.failures()[0].attempts == 1


class TestAcceptanceCampaign:
    """The ISSUE's acceptance run: >= 100 seeded scenarios, two of them
    deliberately pathological, completing without aborting."""

    def test_hundred_scenario_campaign_isolates_failures(self):
        scenarios = chaos_scenarios(
            pairs=[(3, 1), (4, 2), (5, 3), (6, 2)],
            targets=[1.0, -1.5, 2.5, -4.0],
            faults=FAULT_KINDS,
            seed=2026,
        )
        scenarios.append(broken_model_scenario())
        scenarios.append(speed_violation_scenario())
        assert len(scenarios) >= 100

        report = run_campaign(scenarios, check_invariants=True)

        assert report.total == len(scenarios)
        assert report.failed == 2
        errors = report.error_counts()
        assert errors == {"SimulationError": 1, "TrajectoryError": 1}
        # every failure is replayable: spec + seed survive into the report
        for failure in report.failures():
            assert failure.spec.seed is not None
            assert failure.error_message
        assert "2 failure(s) isolated" in report.describe()

    def test_campaign_replays_identically(self):
        def build():
            return chaos_scenarios(
                pairs=[(3, 1), (5, 2)],
                targets=[1.0, -2.0],
                faults=["random", "probabilistic:0.4"],
                seed=7,
            )

        first = run_campaign(build())
        second = run_campaign(build())
        assert [r.detection_time for r in first.results] == [
            r.detection_time for r in second.results
        ]
        assert [r.faulty_robots for r in first.results] == [
            r.faulty_robots for r in second.results
        ]


class TestCampaignReport:
    def test_empty_report(self):
        report = CampaignReport()
        assert report.total == 0
        assert "0/0" in report.describe()

    def test_describe_caps_failures(self):
        report = run_campaign(
            [broken_model_scenario(seed=i) for i in range(5)]
        )
        text = report.describe(max_failures=2)
        assert "and 3 more" in text
