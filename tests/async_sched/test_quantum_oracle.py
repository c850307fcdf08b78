"""Timelines answer every query with the per-quantum reference's float.

The reference (:mod:`tests.async_sched.quantum_oracle`) makes one
scheduler decision and stores one burst per activation quantum.  The
library's timelines must agree with it bit for bit — compared by
``float.hex``, so even a signed zero counts — on every scheduler kind,
over fleets with crash-stop halted and speed-scaled plans, and on
targets and probe instants that land exactly on quantum boundaries.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_sched import (
    AdversarialScheduler,
    AsyncScheduler,
    FsyncScheduler,
    SchedulerContext,
    SsyncScheduler,
    timelines_for,
)
from repro.extensions.multi_speed import SpeedScaledTrajectory
from repro.schedule import ProportionalAlgorithm
from repro.trajectory.halted import HaltedTrajectory

from tests.async_sched.quantum_oracle import QuantumTimeline, reference_slices

QUANTA = [0.5, 0.3, 0.1, 0.7, 0.125]
PAIRS = [(3, 1), (4, 2), (5, 2), (2, 1)]
#: Plan-time horizon the probes cover.
HORIZON = 24.0


def accumulated(quantum, k):
    """Plan time after ``k`` quanta, summed the way schedules sum them."""
    t = 0.0
    for _ in range(k):
        t += quantum
    return t


@st.composite
def schedulers(draw):
    """One scheduler of every kind, all on one drawn quantum."""
    quantum = draw(st.sampled_from(QUANTA))
    delays = st.sampled_from([0.0, 0.125, 0.3, 1.0, 2.0])
    return [
        FsyncScheduler(quantum),
        SsyncScheduler(
            draw(st.sampled_from([0.2, 0.5, 1.0])),
            quantum,
            max_idle_rounds=draw(st.integers(min_value=1, max_value=4)),
        ),
        AsyncScheduler(draw(delays), quantum),
        AdversarialScheduler(draw(delays), quantum),
    ]


@st.composite
def fleets(draw):
    """Plans of one proportional fleet, some halted, some slowed."""
    n, f = draw(st.sampled_from(PAIRS))
    plans = []
    for plan in ProportionalAlgorithm(n, f).build():
        change = draw(st.sampled_from(["none", "halt", "speed", "both"]))
        if change in ("speed", "both"):
            plan = SpeedScaledTrajectory(
                plan, draw(st.sampled_from([0.3, 0.6, 0.9]))
            )
        if change in ("halt", "both"):
            plan = HaltedTrajectory(
                plan, draw(st.floats(min_value=0.2, max_value=HORIZON))
            )
        plans.append(plan)
    return plans


@st.composite
def targets(draw, quantum):
    k = draw(st.integers(min_value=1, max_value=40))
    magnitude = draw(
        st.one_of(
            st.just(accumulated(quantum, k)),
            st.just(k * quantum),
            st.floats(min_value=0.25, max_value=12.0),
        )
    )
    return -magnitude if draw(st.booleans()) else magnitude


def plan_probes(plan, target, quantum, extra):
    """Visits, turns, quantum boundaries and free instants up to HORIZON."""
    probes = [0.0, -1.0, math.ulp(0.0)]
    probes += plan.visit_times(target, HORIZON)
    probes += [v.time for v in plan.turning_points_until(HORIZON)]
    t = 0.0
    while t < HORIZON:
        t += quantum
        probes += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    probes += extra
    return probes


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_timelines_match_the_per_quantum_reference(data):
    kinds = data.draw(schedulers())
    plans = data.draw(fleets())
    target = data.draw(targets(kinds[0].quantum))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    extra = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=HORIZON), max_size=8)
    )
    for scheduler in kinds:
        timelines = timelines_for(plans, scheduler, target, seed)
        reference_context = SchedulerContext(plans, target, seed)
        for robot, timeline in enumerate(timelines):
            reference = QuantumTimeline(
                reference_slices(scheduler, robot, reference_context)
            )
            probes = plan_probes(
                plans[robot], target, scheduler.quantum, extra
            )
            walls = []
            for t in probes:
                wall = reference.wall_of(t)
                assert timeline.wall_of(t).hex() == wall.hex(), (
                    scheduler.describe(), robot, t,
                )
                offset = reference.offset_at(t)
                assert timeline.offset_at(t).hex() == offset.hex(), (
                    scheduler.describe(), robot, t,
                )
                walls += [wall, math.nextafter(wall, 0.0),
                          math.nextafter(wall, math.inf)]
            for w in walls + extra:
                plan = reference.plan_of(w)
                assert timeline.plan_of(w).hex() == plan.hex(), (
                    scheduler.describe(), robot, w,
                )
