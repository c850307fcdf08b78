"""Realized fleets share their trajectories through the one fleet cache.

Every variant's ``realize`` returns a new fleet of new robots over
trajectories cached per algorithm (:data:`repro.batch.cache.FLEET_CACHE`).
These tests pin what sharing must not change: no run mutates a cached
trajectory, concurrent readers see exactly the serial answers, the cache
stays bounded, and a spec the algorithm refuses is refused every time.
"""

import itertools
import multiprocessing
import os
import pickle
import sys
import threading

import pytest

from repro.async_sched.schedulers import SCHEDULER_KINDS
from repro.batch import cache
from repro.errors import InvalidParameterError
from repro.robustness import ScenarioSpec, chaos_scenarios, run_campaign
from repro.robustness.campaign import FAULT_KINDS
from repro.schedule import algorithm_for
from repro.variants import variant_for


@pytest.fixture
def fresh_cache(monkeypatch):
    fresh = cache.CompiledFleetCache()
    monkeypatch.setattr(cache, "FLEET_CACHE", fresh)
    return fresh


def _snapshot(trajectory):
    """Every materialized vertex and segment, as exact float hex."""
    vertices = [(v.position.hex(), v.time.hex()) for v in trajectory._vertices]
    segments = [
        (s.start.position.hex(), s.start.time.hex(),
         s.end.position.hex(), s.end.time.hex())
        for s in trajectory._segments
    ]
    return vertices, segments


PAIRS = [(3, 1), (5, 2)]
TARGETS = [2.5, -3.7]
#: Each scheduler kind, as a campaign mode.
MODES = ["sync"] + [
    {"fsync": "event:fsync", "ssync": "event:ssync:0.5",
     "async": "event:async:0.5", "adversarial": "event:adversarial:1.0"}[kind]
    for kind in SCHEDULER_KINDS
]
#: (variant, protocol) pairs a spec can name.
ROUTES = [
    ("line", "none"), ("line", "confirmation"),
    ("halfline", "none"), ("evacuation", "none"),
]


def _faults(mode):
    # probabilistic faults under a scheduler cost seconds for some seeds
    return [k for k in FAULT_KINDS if mode == "sync" or k != "probabilistic"]


def test_no_campaign_mutates_a_cached_fleet(fresh_cache):
    grids = [
        chaos_scenarios(PAIRS, TARGETS, _faults(mode), seed=11,
                        protocol=protocol, mode=mode, variant=variant)
        for (variant, protocol), mode in itertools.product(ROUTES, MODES)
    ]
    # realize every fleet the campaign reads, far past what it needs
    shared = {}
    for scenario in itertools.chain.from_iterable(grids):
        for trajectory in scenario.build()[0].trajectories:
            if id(trajectory) not in shared:
                trajectory.ensure_time(5000.0)
                shared[id(trajectory)] = (trajectory, _snapshot(trajectory))
    # per pair: the line fleet, the confirmation fleet (evacuation's
    # too) and one halfline fleet per side
    assert len(fresh_cache) == 4 * len(PAIRS)
    before = len(shared)
    for grid in grids:
        report = run_campaign(grid)
        assert report.total == len(grid) and report.failed == 0
    for trajectory, snapshot in shared.values():
        assert _snapshot(trajectory) == snapshot, trajectory.describe()
    # and the campaign realized no fleet that was not already cached
    for scenario in itertools.chain.from_iterable(grids):
        for trajectory in scenario.build()[0].trajectories:
            assert id(trajectory) in shared
    assert len(shared) == before


def _answers(trajectories, targets, times):
    return (
        [[t.first_visit_time(x) for x in targets] for t in trajectories],
        [[t.position_at(s) for s in times] for t in trajectories],
    )


@pytest.mark.parametrize(
    "spec",
    [
        ScenarioSpec(3, 1, 2.0),
        ScenarioSpec(5, 2, 2.0, protocol="confirmation"),
        ScenarioSpec(4, 1, -2.0, variant="halfline"),
    ],
    ids=["line", "confirmation", "halfline"],
)
def test_threads_materializing_one_fleet_answer_as_serial_code(
    fresh_cache, spec
):
    sign = -1.0 if spec.variant == "halfline" else 1.0
    depths = [40.0, 400.0, 4000.0, 40000.0]
    constructor, args = variant_for(spec.variant).algorithm(spec)
    serial = constructor(*args).build()
    expected = {}
    for depth in depths:
        targets = [sign * depth * k / 97.0 for k in range(1, 98)]
        targets += [-x for x in targets] if sign > 0 else []
        times = [depth * k / 89.0 for k in range(90)]
        expected[depth] = (targets, times, _answers(serial, targets, times))

    start = threading.Barrier(len(depths))
    answers, errors = {}, []

    def worker(depth):
        try:
            fleet, _ = variant_for(spec.variant).realize(spec)
            targets, times, _ = expected[depth]
            start.wait(timeout=60)
            answers[depth] = _answers(fleet.trajectories, targets, times)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(d,)) for d in depths]
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
    assert errors == []
    for depth in depths:
        assert answers[depth] == expected[depth][2], depth
    # every thread read one shared fleet, materialized once
    assert len(fresh_cache) == 1
    shared = variant_for(spec.variant).realize(spec)[0].trajectories
    for mine, theirs in zip(shared, serial):
        assert _snapshot(mine)[0][: len(theirs._vertices)] == (
            _snapshot(theirs)[0]
        )


def test_the_cache_stays_bounded(fresh_cache):
    line = variant_for("line")
    specs = [ScenarioSpec(n, 1, 2.0) for n in range(2, cache.CACHE_SIZE + 10)]
    first = line.realize(specs[0])[0].trajectories
    for spec in specs[1:]:
        line.realize(spec)
        assert len(fresh_cache) <= cache.CACHE_SIZE
    assert len(fresh_cache) == cache.CACHE_SIZE
    # the least recently used fleet was evicted: realized afresh
    again = line.realize(specs[0])[0].trajectories
    assert not any(a is b for a, b in zip(again, first))
    assert len(fresh_cache) == cache.CACHE_SIZE


@pytest.mark.parametrize(
    "spec, message",
    [
        (ScenarioSpec(2, 1, 2.0, protocol="confirmation"),
         "confirmation protocol needs n >= 2f + 1 = 3"),
        (ScenarioSpec(3.0, 1, 2.0), "n must be an int, got 3.0"),
        (ScenarioSpec(3, 1.0, 2.0, variant="halfline"),
         "f must be an int, got 1.0"),
    ],
    ids=["infeasible-confirmation", "float-n", "float-f"],
)
def test_a_refused_spec_is_refused_on_every_call(fresh_cache, spec, message):
    variant = variant_for(spec.variant)
    # the well-formed neighbour is cached: a typed key never matches it
    variant.realize(ScenarioSpec(3, 1, 2.0, protocol=spec.protocol,
                                 variant=spec.variant))
    for _ in range(3):
        with pytest.raises(InvalidParameterError) as refused:
            variant.realize(spec)
        assert message in str(refused.value)
    assert len(fresh_cache) == 1


def test_evacuation_and_confirmation_share_one_fleet(fresh_cache):
    confirmation = ScenarioSpec(5, 2, 2.0, protocol="confirmation")
    evacuation = ScenarioSpec(5, 2, 2.0, variant="evacuation")
    a, model_a = variant_for("line").realize(confirmation)
    b, model_b = variant_for("evacuation").realize(evacuation)
    assert a is not b and model_a is not model_b
    assert all(x is y for x, y in zip(a.trajectories, b.trajectories))
    assert not any(x is y for x, y in zip(a.robots, b.robots))
    assert len(fresh_cache) == 1


def test_trajectories_still_pickle():
    fresh = algorithm_for(3, 1).build()[0]
    copy = pickle.loads(pickle.dumps(fresh))
    assert copy.first_visit_time(-7.5) == fresh.first_visit_time(-7.5)
    assert copy._lock is not fresh._lock


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_worker_never_waits_on_a_parent_thread(fresh_cache):
    spec = ScenarioSpec(3, 1, 2.0)
    shared = variant_for("line").realize(spec)[0].trajectories[0]
    held, release = threading.Event(), threading.Event()

    def hold():
        with shared._lock:  # as if mid-pull when the parent forks
            held.set()
            release.wait(timeout=60)

    def child():
        fleet, _ = variant_for("line").realize(spec)
        os._exit(0 if fleet.trajectories[0].first_visit_time(50.0) else 1)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(timeout=30)
        worker = multiprocessing.get_context("fork").Process(target=child)
        worker.start()
        worker.join(timeout=60)
        alive = worker.is_alive()
        if alive:
            worker.kill()
            worker.join(timeout=30)
    finally:
        release.set()
        holder.join(timeout=30)
    assert not holder.is_alive()
    assert not alive and worker.exitcode == 0
