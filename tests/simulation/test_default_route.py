"""The batch kernels are the default route of ratio sweeps and the CR
estimator, and they are bit-identical to the per-target engine.

``target_sweep`` and ``CompetitiveRatioEstimator`` (hence
``measure_competitive_ratio``) evaluate ``K(x) = T_{f+1}(x) / |x|``
through :class:`~repro.batch.evaluate.BatchEvaluator` unless told
otherwise; ``method="event"`` is the oracle.  These tests pin exact
(``float.hex``) agreement over every shipped algorithm family, the
routing rules, that both front ends share one compiled fleet, and that
the default path never imports an optional dependency.
"""

import importlib
import math
import os
import pkgutil
import random
import subprocess
import sys

import pytest

import repro
import repro.baselines
from repro.batch import cache
import repro.extensions
import repro.schedule
from repro.baselines import (
    DelayedGroupDoubling,
    GroupDoubling,
    SingleRobotDoubling,
    SplitDoubling,
    TwoGroupAlgorithm,
)
from repro.errors import InvalidParameterError
from repro.extensions.bounded import BoundedDistanceAlgorithm
from repro.extensions.multi_speed import MultiSpeedProportionalAlgorithm
from repro.extensions.scaled_copies import ScaledCopiesAlgorithm
from repro.extensions.turn_cost import TurnCostProportionalAlgorithm
from repro.robots.fleet import Fleet
from repro.schedule import algorithm_for
from repro.schedule.base import SearchAlgorithm
from repro.schedule.byzantine import ByzantineConfirmationAlgorithm
from repro.schedule.generalized import CustomBetaAlgorithm
from repro.observability import instrument as obs
from repro.schedule.halfline import HalfLineAlgorithm
from repro.simulation import measure_competitive_ratio
from repro.simulation.adversary import CompetitiveRatioEstimator
from repro.simulation.sweep import geometric_grid, target_sweep

#: One or more instances of every shipped SearchAlgorithm family, by id.
ALGORITHMS = {
    # the algorithm_for regimes: proportional and two-group
    "A(2,1)": algorithm_for(2, 1),
    "A(3,1)": algorithm_for(3, 1),
    "A(3,2)": algorithm_for(3, 2),
    "A(5,2)": algorithm_for(5, 2),
    "A(11,5)": algorithm_for(11, 5),
    "TwoGroup(4,1)": algorithm_for(4, 1),
    "TwoGroup(6,2)": algorithm_for(6, 2),
    "CustomBeta(3,1,1.5)": CustomBetaAlgorithm(3, 1, 1.5),
    "CustomBeta(5,3,2.5)": CustomBetaAlgorithm(5, 3, 2.5),
    # baselines
    "SingleDoubling": SingleRobotDoubling(),
    "SingleDoubling-left": SingleRobotDoubling(first_direction=-1),
    "SplitDoubling(3,1)": SplitDoubling(3, 1),
    "DelayedGroupDoubling(3,1)": DelayedGroupDoubling(3, 1, delay=0.5),
    "GroupDoubling(3,1)": GroupDoubling(3, 1),
    "TwoGroup(5,1,right=2)": TwoGroupAlgorithm(5, 1, right_group_size=2),
    "HalfLine(3,1)": HalfLineAlgorithm(3, 1),
    "HalfLine(3,1)-left": HalfLineAlgorithm(3, 1, side=-1),
    "ByzantineConfirmation(3,1)": ByzantineConfirmationAlgorithm(3, 1),
    # extensions
    "Bounded(3,1,D=10)": BoundedDistanceAlgorithm(3, 1, radius=10.0),
    "MultiSpeed(3,1)": MultiSpeedProportionalAlgorithm(
        3, 1, speeds=[1.0, 0.5, 1.0]
    ),
    "ScaledCopies(3,1)": ScaledCopiesAlgorithm(3, 1),
    "ScaledCopies(5,2)-left": ScaledCopiesAlgorithm(5, 2, first_direction=-1),
    "TurnCost(3,1)": TurnCostProportionalAlgorithm(3, 1, cost=0.25),
}

CASES = [
    pytest.param(algorithm, budget, id=f"{name}-f{budget}")
    for name, algorithm in ALGORITHMS.items()
    for budget in sorted(
        {0, algorithm.f, min(algorithm.f + 1, algorithm.n)}
    )
]


def _stratified_targets(seed, count=80, lo=1.0, hi=1e3):
    """``count`` targets with ``|x|`` log-stratified over ``[lo, hi]``
    and random signs, one draw per stratum."""
    rng = random.Random(seed)
    return [
        rng.choice((-1.0, 1.0)) * lo * (hi / lo) ** ((i + rng.random()) / count)
        for i in range(count)
    ]


def _concrete_subclasses(cls):
    for sub in cls.__subclasses__():
        if not getattr(sub, "__abstractmethods__", None):
            yield sub
        yield from _concrete_subclasses(sub)


def test_catalog_covers_every_shipped_family():
    for package in (repro.schedule, repro.baselines, repro.extensions):
        for module in pkgutil.walk_packages(
            package.__path__, package.__name__ + "."
        ):
            importlib.import_module(module.name)
    shipped = {
        sub
        for sub in _concrete_subclasses(SearchAlgorithm)
        if sub.__module__.startswith("repro.")
    }
    assert shipped == {type(a) for a in ALGORITHMS.values()}


@pytest.mark.parametrize("algorithm,budget", CASES)
def test_default_route_is_bit_identical_to_event(request, algorithm, budget):
    fleet = Fleet.from_algorithm(algorithm)
    default = CompetitiveRatioEstimator(fleet, budget)
    event = CompetitiveRatioEstimator(fleet, budget, method="event")
    targets = (
        _stratified_targets(request.node.callspec.id)
        + default.candidate_targets()
    )

    fast = target_sweep(fleet, budget, targets)
    oracle = target_sweep(fleet, budget, targets, method="event")
    assert [s.x for s in fast.samples] == [s.x for s in oracle.samples]
    assert [s.detection_time.hex() for s in fast.samples] == [
        s.detection_time.hex() for s in oracle.samples
    ]

    got, want = default.estimate(), event.estimate()
    assert got.value.hex() == want.value.hex()
    assert got.witness.x == want.witness.x
    assert got.samples_evaluated == want.samples_evaluated


class TestRouting:
    def test_defaults_never_visit_per_target(self, fleet_3_1, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-target engine called")

        monkeypatch.setattr(Fleet, "worst_case_detection_time", refuse)
        target_sweep(fleet_3_1, 1, [1.0, -2.5, 40.0])
        CompetitiveRatioEstimator(fleet_3_1, 1).estimate()

    def test_scheduler_default_runs_the_event_engine(
        self, fleet_3_1, monkeypatch
    ):
        from repro.async_sched.engine import EventEngine

        runs = []
        original = EventEngine.run

        def counted(engine, *args, **kwargs):
            runs.append(engine)
            return original(engine, *args, **kwargs)

        monkeypatch.setattr(EventEngine, "run", counted)
        profile = target_sweep(
            fleet_3_1, 1, [1.0, 2.0, -3.0], scheduler="event:adversarial:1.0"
        )
        assert len(runs) == 3
        assert len(profile.samples) == 3

    def test_batch_with_scheduler_rejected(self, fleet_3_1):
        with pytest.raises(InvalidParameterError, match="scheduler"):
            target_sweep(
                fleet_3_1, 1, [1.0], method="batch",
                scheduler="event:adversarial:1.0",
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_targets_rejected(self, fleet_3_1, bad):
        with pytest.raises(InvalidParameterError, match="finite"):
            target_sweep(fleet_3_1, 1, [1.0, bad])
        with pytest.raises(InvalidParameterError, match="finite"):
            target_sweep(fleet_3_1, 1, [1.0, bad], method="event")


def test_sweep_and_estimate_share_one_compiled_fleet(monkeypatch):
    fresh = cache.CompiledFleetCache()
    monkeypatch.setattr(cache, "FLEET_CACHE", fresh)
    algorithm = algorithm_for(3, 1)
    grid = geometric_grid(1.0, 256.0, 50)
    telemetry = obs.enable()
    try:
        target_sweep(
            Fleet.from_algorithm(algorithm), 1, grid + [-x for x in grid]
        )
        compiles = telemetry.metrics.counter("batch_compiles_total")
        assert compiles.value() == 1.0
        # the estimator's probes (|x| <= 200) fit the sweep's window
        measure_competitive_ratio(algorithm, x_max=200.0)
        assert compiles.value() == 1.0
        # a larger window compiles once more, for both front ends
        measure_competitive_ratio(algorithm, x_max=400.0)
        target_sweep(Fleet.from_algorithm(algorithm), 1, [-400.0, 400.0])
        assert compiles.value() == 2.0
    finally:
        obs.disable()
    assert len(fresh) == 1


def test_default_path_does_not_import_numpy():
    pytest.importorskip("numpy")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = (
        "import sys\n"
        "from repro.robots.fleet import Fleet\n"
        "from repro.schedule import algorithm_for\n"
        "from repro.simulation import measure_competitive_ratio, target_sweep\n"
        "alg = algorithm_for(3, 1)\n"
        "target_sweep(Fleet.from_algorithm(alg), 1, [1.0, -2.0, 5.0])\n"
        "measure_competitive_ratio(alg)\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
