"""Property suite for the event engine.

Three families:

1. **FSYNC parity** — on random proportional regimes, targets, and
   every campaign fault kind, the unit-speed FSYNC event engine must
   return the continuous engine's whole outcome *bit-exactly* (``==``
   on the outcome and its event log, not ``times_close``).
2. **Monotone degradation** — for the async scheduler kind with a fixed
   seed, detection times are monotone non-decreasing in ``max_delay``
   (the coupling: the same uniform draws scale linearly with the knob).
3. **Hash-free determinism** — scheduler randomness must not depend on
   ``PYTHONHASHSEED``: detection times computed in subprocesses with
   different hash seeds are identical to the in-process values.
"""

import json
import math
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.async_sched import AsyncScheduler, EventEngine, FsyncScheduler
from repro.robots import AdversarialFaults, Fleet
from repro.robustness.campaign import ScenarioSpec, _fault_model_for
from repro.schedule import ProportionalAlgorithm
from repro.simulation import SearchSimulation

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")


@st.composite
def proportional_regimes(draw):
    """(n, f) with f < n < 2f + 2 — the paper's non-trivial band."""
    f = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=f + 1, max_value=2 * f + 1))
    return n, f


def signed_target():
    magnitude = st.floats(
        min_value=1.0, max_value=32.0, allow_nan=False, allow_infinity=False
    )
    return st.builds(lambda m, neg: -m if neg else m, magnitude, st.booleans())


#: Every campaign fault kind that runs without the confirmation protocol.
SYNC_FAULT_KINDS = (
    "none",
    "adversarial",
    "random",
    "fixed",
    "crash_stop",
    "byzantine",
    "probabilistic",
)


@settings(max_examples=40, deadline=None)
@given(
    regime=proportional_regimes(),
    target=signed_target(),
    fault=st.sampled_from(SYNC_FAULT_KINDS),
    fault_seed=st.integers(min_value=0, max_value=2**16),
    quantum=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)
def test_fsync_equals_continuous_bit_exactly(
    regime, target, fault, fault_seed, quantum
):
    n, f = regime
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(n, f))
    if fault == "fixed":
        # a deterministic fault subset of size f drawn from the seed
        import random

        subset = random.Random(fault_seed).sample(range(n), f)
        fault = "fixed:" + ",".join(map(str, subset))
    spec = ScenarioSpec(n, f, target, fault, seed=fault_seed)
    # a fresh model per run: stochastic models keep state across draws
    continuous = SearchSimulation(
        fleet, target, fault_model=_fault_model_for(spec)
    ).run()
    event = EventEngine(
        fleet,
        target,
        scheduler=FsyncScheduler(quantum),
        fault_model=_fault_model_for(spec),
    ).run()
    # the whole outcome: detection, fault set, and every event's type,
    # time, robot, position and detected flag
    assert event == continuous


@settings(max_examples=25, deadline=None)
@given(
    regime=proportional_regimes(),
    target=signed_target(),
    seed=st.integers(min_value=0, max_value=2**16),
    knobs=st.lists(
        st.floats(min_value=0.0, max_value=4.0,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=4,
    ),
)
def test_async_detection_monotone_in_max_delay(regime, target, seed, knobs):
    n, f = regime
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(n, f))
    times = []
    for knob in sorted(knobs):
        outcome = EventEngine(
            fleet,
            target,
            scheduler=AsyncScheduler(max_delay=knob, quantum=0.5),
            fault_model=AdversarialFaults(f),
            seed=seed,
        ).run(with_events=False)
        times.append(outcome.detection_time)
    assert all(math.isfinite(t) for t in times)
    assert times == sorted(times)


CROSS_PROCESS_SCRIPT = """\
import json
import sys

from repro.async_sched import EventEngine, scheduler_from_spec
from repro.robots import AdversarialFaults, Fleet
from repro.schedule import ProportionalAlgorithm

cases = json.load(sys.stdin)
out = []
for case in cases:
    fleet = Fleet.from_algorithm(ProportionalAlgorithm(case["n"], case["f"]))
    outcome = EventEngine(
        fleet,
        case["target"],
        scheduler=scheduler_from_spec(case["scheduler"]),
        fault_model=AdversarialFaults(case["f"]),
        seed=case["seed"],
    ).run(with_events=False)
    out.append(outcome.detection_time.hex())
print(json.dumps(out))
"""


def test_detection_times_independent_of_hash_seed(tmp_path):
    """Run the same scheduled scenarios in subprocesses with different
    ``PYTHONHASHSEED`` values and demand bit-identical detection times
    everywhere."""
    cases = [
        {"n": 3, "f": 1, "target": 2.0,
         "scheduler": "event:async:1.5:0.5", "seed": 7},
        {"n": 4, "f": 2, "target": -3.5,
         "scheduler": "event:ssync:0.4:0.25", "seed": 11},
        {"n": 5, "f": 2, "target": 5.0,
         "scheduler": "event:adversarial:1.0", "seed": 2016},
    ]
    local = []
    from repro.async_sched import scheduler_from_spec

    for case in cases:
        fleet = Fleet.from_algorithm(
            ProportionalAlgorithm(case["n"], case["f"])
        )
        outcome = EventEngine(
            fleet,
            case["target"],
            scheduler=scheduler_from_spec(case["scheduler"]),
            fault_model=AdversarialFaults(case["f"]),
            seed=case["seed"],
        ).run(with_events=False)
        local.append(outcome.detection_time.hex())

    script = tmp_path / "detect.py"
    script.write_text(CROSS_PROCESS_SCRIPT)
    payload = json.dumps(cases)
    for hash_seed in ("0", "1", "31337"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run(
            [sys.executable, str(script)],
            input=payload,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert json.loads(out.stdout) == local, hash_seed
