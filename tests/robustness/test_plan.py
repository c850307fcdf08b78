"""The execution plan: one validator and one engine table for every caller."""

import functools
import itertools
import math
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.batch import cache
from repro.cli import main
from repro.core import SearchParameters
from repro.errors import CampaignInterrupted, InvalidParameterError
from repro.geometry.cone import Cone
from repro.robots import AdversarialFaults, FixedFaults
from repro.robots.fleet import Fleet
from repro.robustness import (
    CampaignExecutor,
    Scenario,
    ScenarioSpec,
    chaos_scenarios,
    executor,
    plan,
    run_campaign,
)
from repro.robustness.plan import plan_for, validate_spec
from repro.schedule import algorithm_for
from repro.service.protocol import ServiceError, parse_submission
from repro.simulation.engine import SearchSimulation
from repro.trajectory import (
    ConeZigZag,
    DoublingTrajectory,
    LinearTrajectory,
)

VARIANTS = ("line", "halfline", "evacuation")
PROTOCOLS = ("none", "confirmation")
MODES = ("sync", "event:adversarial:1.0")
METHODS = ("event", "batch")


class TestPlanTable:
    @pytest.mark.parametrize(
        "fields, engine",
        [
            ({"variant": "evacuation", "protocol": "confirmation"}, "evacuation"),
            ({"variant": "evacuation", "mode": "event"}, "evacuation"),
            ({"protocol": "confirmation", "mode": "event"}, "confirmation"),
            ({"variant": "halfline", "protocol": "confirmation"}, "confirmation"),
            ({"mode": "event:async:0.5"}, "event"),
            ({"variant": "halfline"}, "sync"),
            ({}, "batch"),
        ],
    )
    def test_engine_per_row(self, fields, engine):
        spec = ScenarioSpec(5, 2, 3.0, "none", 1, **fields)
        chosen, refusal = plan_for(spec, "batch", check_invariants=False)
        assert chosen == engine
        assert (refusal is None) == (engine == "batch")

    def test_batch_needs_the_audit_off(self):
        spec = ScenarioSpec(3, 1, 2.0)
        assert plan_for(spec, "batch", check_invariants=True) == ("sync", None)
        assert plan_for(spec, "event", check_invariants=False) == ("sync", None)

    @pytest.mark.parametrize(
        "fields, engine",
        [
            ({"variant": "evacuation"}, "evacuation"),
            ({"protocol": "confirmation"}, "confirmation"),
            ({"mode": "event:async:0.5"}, "event"),
            ({"variant": "halfline"}, "sync"),
            ({}, "batch"),
        ],
    )
    def test_default_method_picks_batch_without_refusing(self, fields, engine):
        spec = ScenarioSpec(5, 2, 3.0, "none", 1, **fields)
        assert plan_for(spec, check_invariants=False) == (engine, None)
        audited = "sync" if engine == "batch" else engine
        assert plan_for(spec) == (audited, None)

    def test_event_method_is_never_refused(self):
        for variant, protocol, mode in itertools.product(
            VARIANTS, PROTOCOLS, MODES
        ):
            spec = ScenarioSpec(
                5, 2, 2.0, protocol=protocol, mode=mode, variant=variant
            )
            assert plan_for(spec, "event")[1] is None


class TestValidateSpec:
    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"fault": "gremlins"}, "unknown fault kind"),
            ({"fault": "crash_stop:abc"}, "invalid fault spec"),
            ({"fault": "crash_stop:-1"}, "halt time"),
            ({"fault": "probabilistic:1.5"}, "detection probability"),
            ({"fault": "fixed:x"}, "invalid fault spec"),
            ({"fault": "fixed:-1"}, "non-negative"),
            ({"fault": "byzantine:a;b"}, "invalid fault spec"),
            ({"fault": "byzantine_adversarial:-2"}, "alarm times"),
            ({"protocol": "paxos"}, "unknown protocol"),
            ({"variant": "torus"}, "unknown variant"),
            ({"n": 2, "variant": "evacuation"}, "reliable majority"),
            ({"mode": "event:bogus"}, "bogus"),
        ],
    )
    def test_refusals(self, fields, match):
        spec = ScenarioSpec(**{"n": 3, "f": 1, "target": 2.0, **fields})
        with pytest.raises(InvalidParameterError, match=match):
            validate_spec(spec)

    def test_malformed_argument_refused_without_faulty_robots(self):
        with pytest.raises(InvalidParameterError, match="probabilistic"):
            validate_spec(ScenarioSpec(3, 0, 2.0, "probabilistic:1.5"))

    def test_fault_probe_leaves_the_other_rules_to_the_spec(self):
        validate_spec(ScenarioSpec(1, 0, 2.0, "none", variant="evacuation"))

    def test_fleet_feasibility_is_left_to_realization(self):
        # The library isolates an undersized confirmation fleet as a
        # failed scenario; only the service refuses it up front.
        validate_spec(ScenarioSpec(4, 2, 2.0, protocol="confirmation"))


def _service_refuses(spec, method):
    try:
        parse_submission({"spec": spec.to_dict(), "method": method})
    except ServiceError as exc:
        assert exc.code == "bad_request"
        return True
    return False


@pytest.mark.parametrize(
    "variant, protocol, mode, method",
    list(itertools.product(VARIANTS, PROTOCOLS, MODES, METHODS)),
)
def test_library_service_and_cli_refuse_batch_alike(
    capsys, variant, protocol, mode, method
):
    spec = ScenarioSpec(
        5, 2, 2.0, "none", 7, protocol=protocol, mode=mode, variant=variant
    )
    refused = plan_for(spec, method)[1] is not None
    assert _service_refuses(spec, method) == refused
    code = main(
        [
            "chaos", "--pairs", "5,2", "--targets", "2.0",
            "--faults", "none", "--no-invariants", "--method", method,
            "--protocol", protocol, "--mode", mode, "--variant", variant,
        ]
    )
    capsys.readouterr()
    assert code == (2 if refused else 0)


BATCH_PAIRS = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (7, 3), (4, 1), (6, 2)]
BATCH_TARGETS = [(-1.0) ** k * 1.9 ** k for k in range(22)]
BATCH_FAULTS = ["none", "adversarial", "fixed", "random"]


@pytest.fixture
def kernel_runs(monkeypatch):
    """Whether each case of each ``_batch_outcomes`` call took the
    kernels."""
    runs = []
    batch_outcomes = plan._batch_outcomes

    def counted(*args):
        outcomes = batch_outcomes(*args)
        runs.extend(outcome is not None for outcome in outcomes)
        return outcomes

    monkeypatch.setattr(plan, "_batch_outcomes", counted)
    return runs


@pytest.mark.parametrize("seed", [0, 7, 2016])
@pytest.mark.parametrize("variant", ["line", "halfline"])
def test_batch_campaign_report_is_byte_identical(kernel_runs, seed, variant):
    reports = {
        method: run_campaign(
            chaos_scenarios(
                BATCH_PAIRS, BATCH_TARGETS, BATCH_FAULTS,
                seed=seed, method=method, variant=variant,
            ),
            check_invariants=False,
        ).to_json()
        for method in METHODS
    }
    assert reports["batch"] == reports["event"]
    # the line grid really took the kernels; the ray never does
    expected = len(BATCH_PAIRS) * len(BATCH_TARGETS) * len(BATCH_FAULTS)
    assert kernel_runs == ([True] * expected if variant == "line" else [])


# ----------------------------------------------------------------------
# the default route: batch kernels over the cached compiled fleets
# ----------------------------------------------------------------------

#: Exact turning points (the first and third turn of every robot) of the
#: proportional fleets of ``BATCH_PAIRS``.  A fleet group reads them from
#: one window; scenarios run one by one read them, after
#: ``BATCH_TARGETS``, whose ``|x|`` grows, from grown windows.
TURN_TARGETS = sorted(
    {
        robot.turning_position(i)
        for n, f in BATCH_PAIRS
        if SearchParameters(n, f).is_proportional
        for robot in algorithm_for(n, f).build()
        for i in (0, 2)
    }
)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty fleet cache, counting its compilations."""
    fresh = cache.CompiledFleetCache()
    compiles = []
    compile_fleet = cache.compile_fleet

    def counted(*args, **kwargs):
        compiles.append(args[1:])
        return compile_fleet(*args, **kwargs)

    monkeypatch.setattr(cache, "FLEET_CACHE", fresh)
    monkeypatch.setattr(cache, "compile_fleet", counted)
    fresh.compiles = compiles
    return fresh


def _report(scenarios):
    return run_campaign(scenarios, check_invariants=False).to_json()


@pytest.mark.parametrize("seed", [0, 7, 2016])
def test_default_campaign_report_is_byte_identical(
    fresh_cache, kernel_runs, seed
):
    targets = BATCH_TARGETS + TURN_TARGETS

    def grid(**method):
        return chaos_scenarios(
            BATCH_PAIRS, targets, BATCH_FAULTS, seed=seed, **method
        )

    event = _report(grid(method="event"))
    assert kernel_runs == []
    assert _report(grid()) == event
    assert kernel_runs == [True] * (
        len(BATCH_PAIRS) * len(targets) * len(BATCH_FAULTS)
    )
    # one cache entry per fleet, compiled once at the grid's largest |x|
    assert len(fresh_cache) == len(BATCH_PAIRS)
    assert len(fresh_cache.compiles) == len(BATCH_PAIRS)


def _custom(n, f, target, build, method=None):
    spec = ScenarioSpec(n, f, target, "adversarial")
    return Scenario(spec=spec, build=build, method=method)


def test_cache_key_comes_from_the_fleet_not_the_spec(fresh_cache, kernel_runs):
    def five_two():
        return Fleet.from_algorithm(algorithm_for(5, 2)), AdversarialFaults(2)

    def grid(**method):
        # genuine (3,1) scenarios first, so a spec-keyed cache would
        # answer the mislabelled ones from the (3,1) fleet
        genuine = chaos_scenarios([(3, 1)], BATCH_TARGETS, ["adversarial"],
                                  **method)
        return genuine + [
            _custom(3, 1, x, five_two, **method)
            for x in BATCH_TARGETS + TURN_TARGETS
        ]

    assert _report(grid()) == _report(grid(method="event"))
    assert all(kernel_runs) and len(kernel_runs) > len(BATCH_TARGETS)
    assert len(fresh_cache) == 2
    # the (3,1) group compiled once; the ad-hoc (5,2) scenarios ran one
    # by one, so their window regrew from the first target's |x|, at
    # least doubling each time: fewer than 2 + log2(max|x| / first |x|)
    # compiles, not one per scenario
    widths = [abs(x) for x in BATCH_TARGETS + TURN_TARGETS]
    regrown = len(fresh_cache.compiles) - 1
    assert 1 < regrown < 2 + math.log2(max(widths) / widths[0])


def test_unkeyed_fleet_runs_on_the_engine(monkeypatch, fresh_cache):
    runs = []
    run = SearchSimulation.run

    def counted(self, *args, **kwargs):
        runs.append(self.target)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(SearchSimulation, "run", counted)

    def unkeyed():
        trajectories = [DoublingTrajectory(), LinearTrajectory(1)]
        return Fleet.from_trajectories(trajectories), FixedFaults([1])

    scenarios = [_custom(2, 1, x, unkeyed) for x in (1.0, -3.0)]
    report = run_campaign(scenarios, check_invariants=False)
    assert report.failed == 0
    assert runs == [1.0, -3.0]
    assert len(fresh_cache) == 0


@pytest.mark.parametrize(
    "target, model",
    [
        (2.0, AdversarialFaults(3)),     # budget above the fleet size
        (2.0, FixedFaults([5])),         # fault index out of range
        (0.0, AdversarialFaults(0)),     # the engine refuses the origin
        (-1e-12, FixedFaults([1])),      # visited at the start instant
    ],
)
def test_edge_scenarios_report_what_the_engine_reports(target, model):
    def build():
        trajectories = [LinearTrajectory(1), LinearTrajectory(-1)]
        return Fleet.from_trajectories(trajectories), model

    reports = [
        _report([_custom(2, 1, target, build, method=method)])
        for method in (None, "event")
    ]
    assert reports[0] == reports[1]


def test_concurrent_campaigns_match_the_serial_report(fresh_cache):
    def grid(**method):
        return chaos_scenarios(BATCH_PAIRS, BATCH_TARGETS, BATCH_FAULTS,
                               seed=2016, **method)

    serial = _report(grid(method="event"))
    start = threading.Barrier(4)
    reports = []

    def worker():
        scenarios = grid()
        start.wait()
        reports.append(_report(scenarios))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reports == [serial] * 4
    assert len(fresh_cache) == len(BATCH_PAIRS)


def test_cache_holds_at_most_its_bound(fresh_cache, kernel_runs):
    # every robot of fleet k runs at its own speed: all keys distinct
    speeds = [1.0 / (k + 1) for k in range(cache.CACHE_SIZE + 8)]

    def scenario(speed):
        def build():
            trajectories = [LinearTrajectory(1, speed), LinearTrajectory(-1)]
            return Fleet.from_trajectories(trajectories), AdversarialFaults(0)

        return _custom(2, 0, 3.0, build)

    sizes = []
    for speed in speeds:
        run_campaign([scenario(speed)], check_invariants=False)
        sizes.append(len(fresh_cache))
    assert all(kernel_runs) and len(kernel_runs) == len(speeds)
    assert max(sizes) == cache.CACHE_SIZE == sizes[-1]
    # the evicted fleets recompile, and still agree with the engine
    first = scenario(speeds[0])
    assert _report([first]) == _report(
        [_custom(2, 0, 3.0, first.build, method="event")]
    )


# ----------------------------------------------------------------------
# the fleet-grouped route: one fleet build per (n, f) group
# ----------------------------------------------------------------------

@pytest.fixture
def fleet_builds(monkeypatch):
    """The algorithms ``Fleet.from_algorithm`` was called with."""
    builds = []
    from_algorithm = Fleet.from_algorithm

    def counted(algorithm):
        builds.append(algorithm)
        return from_algorithm(algorithm)

    monkeypatch.setattr(Fleet, "from_algorithm", staticmethod(counted))
    return builds


def test_a_campaign_builds_one_fleet_per_pair(
    monkeypatch, fresh_cache, fleet_builds
):
    def grid(**method):
        return chaos_scenarios(BATCH_PAIRS, BATCH_TARGETS, BATCH_FAULTS,
                               seed=2016, **method)

    event = _report(grid(method="event"))
    assert len(fleet_builds) == len(BATCH_PAIRS)
    # the event run warmed the shared cache: start the batch run cold
    monkeypatch.setattr(cache, "FLEET_CACHE", cache.CompiledFleetCache())
    scenarios = grid()
    del fleet_builds[:]
    assert _report(scenarios) == event
    assert len(fleet_builds) == len(BATCH_PAIRS)
    # a second identical campaign finds every fleet cached
    del fleet_builds[:]
    assert _report(grid()) == event
    assert fleet_builds == []


MIXED_TARGETS = [1.5, -4.0, 37.5]


def _five_two(spec):
    """An ad-hoc factory: the (5, 2) fleet, whatever ``spec`` says."""
    return Fleet.from_algorithm(algorithm_for(5, 2)), AdversarialFaults(2)


def _mixed_grid():
    """Every way a scenario joins a fleet group or stays out of one."""
    spec = ScenarioSpec(3, 1, 2.0, "adversarial")
    return (
        # grouped: the first 24 scenarios
        chaos_scenarios([(3, 1), (5, 2)], MIXED_TARGETS, BATCH_FAULTS, seed=1)
        # ad-hoc factories, whose fleet is not their spec's
        + [
            _custom(3, 1, -2.0, lambda: _five_two(None)),
            Scenario(spec=spec, build=functools.partial(_five_two, spec)),
        ]
        + chaos_scenarios([(3, 1)], MIXED_TARGETS, ["adversarial"], seed=2,
                          variant="halfline")
        # fault index 9 is out of range: the whole (4, 2) group raises
        + chaos_scenarios([(4, 2)], MIXED_TARGETS, ["random", "fixed:9"],
                          seed=3)
    )


def test_mixed_grid_reports_what_the_per_scenario_route_reports(
    monkeypatch, tmp_path, fresh_cache
):
    grid = _mixed_grid()
    ready = plan._grouped_outcomes(
        list(enumerate(grid)), False, lambda: False
    )
    assert sorted(ready) == list(range(24))

    grouped = _report(grid)
    assert CampaignExecutor(jobs=2).execute(
        _mixed_grid(), check_invariants=False
    ).to_json() == grouped

    journal = str(tmp_path / "journal.jsonl")
    done = []
    with pytest.raises(CampaignInterrupted):
        CampaignExecutor(journal_path=journal, handle_sigterm=False).execute(
            _mixed_grid(),
            check_invariants=False,
            stop_check=lambda: len(done) >= len(grid) // 2,
            on_result=lambda index, result: done.append(index),
        )
    with open(journal, "rb+") as handle:  # tear the last record
        handle.truncate(handle.seek(0, os.SEEK_END) - 40)
    resumed = CampaignExecutor(
        journal_path=journal, resume=True, handle_sigterm=False
    ).execute(_mixed_grid(), check_invariants=False)
    assert resumed.to_json() == grouped

    monkeypatch.setattr(executor, "_grouped_outcomes", lambda *args: {})
    one_by_one = run_campaign(_mixed_grid(), check_invariants=False)
    assert one_by_one.to_json() == grouped
    assert one_by_one.error_counts() == {
        "InvalidParameterError": len(MIXED_TARGETS)
    }


def test_cache_key_is_exact_structure():
    cone = Cone(3.0)
    assert cache.fleet_key([ConeZigZag(cone, 1.0)]) == cache.fleet_key(
        [ConeZigZag(Cone(3.0), 1.0)]
    )
    distinct = [
        [ConeZigZag(cone, 1.0)],
        [ConeZigZag(cone, -1.0)],
        [ConeZigZag(Cone(4.0), 1.0)],
        [ConeZigZag(cone, 1.0, inner_radius=2.0)],
        [LinearTrajectory(1)],
        [LinearTrajectory(-1)],
        [LinearTrajectory(1, speed=0.5)],
        [LinearTrajectory(1, start_time=1.0)],
        [LinearTrajectory(1), LinearTrajectory(1)],
    ]
    keys = [cache.fleet_key(fleet) for fleet in distinct]
    assert len(set(keys)) == len(keys)

    class Slower(LinearTrajectory):
        pass

    assert cache.fleet_key([LinearTrajectory(1), Slower(1)]) is None


def test_cli_default_matches_the_event_method(tmp_path, capsys):
    outputs = []
    for method in ([], ["--method", "event"]):
        path = tmp_path / f"report{len(outputs)}.json"
        code = main(
            [
                "chaos", "--pairs", "3,1", "4,2", "6,2", "--targets", "1.0",
                "-2.5", "7.0", "--faults", "none", "adversarial", "fixed",
                "random", "crash_stop:2.0", "--seed", "7", "--no-invariants",
                "--report-json", str(path),
            ]
            + method
        )
        stdout = capsys.readouterr().out.replace(str(path), "REPORT")
        outputs.append((code, stdout, path.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("method", [None, "batch"])
def test_batch_route_does_not_import_numpy(method):
    pytest.importorskip("numpy")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import sys\n"
        "from repro.robustness import chaos_scenarios, run_campaign\n"
        "report = run_campaign(\n"
        "    chaos_scenarios([(3, 1), (4, 1)], [1.0, -2.0, 5.0],\n"
        "                    ['none', 'adversarial', 'fixed', 'random'],\n"
        f"                    method={method!r}),\n"
        "    check_invariants=False,\n"
        ")\n"
        "assert report.failed == 0, report.describe()\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
