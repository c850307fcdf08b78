"""Hypothesis property suite: batch == engine on random regimes.

The generators draw a proportional regime (``f < n < 2f + 2``), a random
target grid, and random crash-detection fault subsets; every property
holds the batch kernels to the event path's answers.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batch import BatchEvaluator
from repro.core.tolerance import times_close
from repro.robots import FixedFaults, Fleet
from repro.schedule import algorithm_for
from repro.simulation import SearchSimulation


@st.composite
def proportional_regimes(draw):
    """(n, f) with f < n < 2f + 2 — the paper's non-trivial band."""
    f = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=f + 1, max_value=2 * f + 1))
    return n, f


def targets_strategy(max_size=8):
    magnitude = st.floats(
        min_value=1.0, max_value=32.0, allow_nan=False, allow_infinity=False
    )
    signed = st.builds(
        lambda m, neg: -m if neg else m, magnitude, st.booleans()
    )
    return st.lists(signed, min_size=1, max_size=max_size)


@settings(max_examples=30, deadline=None)
@given(regime=proportional_regimes(), targets=targets_strategy())
def test_search_times_match_fleet_oracle(regime, targets):
    n, f = regime
    algorithm = algorithm_for(n, f)
    evaluator = BatchEvaluator(algorithm, backend="pure")
    fleet = Fleet.from_algorithm(algorithm)
    batch = evaluator.search_times(targets)
    for x, t in zip(targets, batch):
        oracle = fleet.worst_case_detection_time(x, f)
        if math.isinf(oracle):
            assert math.isinf(t)
        else:
            assert times_close(t, oracle), (n, f, x, t, oracle)


@settings(max_examples=30, deadline=None)
@given(
    regime=proportional_regimes(),
    targets=targets_strategy(max_size=4),
    data=st.data(),
)
def test_explicit_fault_sets_match_engine(regime, targets, data):
    n, f = regime
    algorithm = algorithm_for(n, f)
    evaluator = BatchEvaluator(algorithm, backend="pure")
    fleet = Fleet.from_algorithm(algorithm)
    size = data.draw(st.integers(min_value=0, max_value=f))
    faulty = tuple(
        sorted(
            data.draw(
                st.permutations(range(n)).map(lambda p: p[:size])
            )
        )
    )
    model = FixedFaults(faulty) if faulty else None
    batch = evaluator.detection_times(targets, faulty)
    for x, t in zip(targets, batch):
        outcome = SearchSimulation(fleet, x, fault_model=model).run(
            with_events=False
        )
        if math.isinf(outcome.detection_time):
            assert math.isinf(t)
        else:
            assert times_close(t, outcome.detection_time)


@settings(max_examples=20, deadline=None)
@given(
    regime=proportional_regimes(),
    targets=targets_strategy(max_size=6),
    budget_shift=st.integers(min_value=-1, max_value=1),
)
def test_search_times_monotone_in_budget(regime, targets, budget_shift):
    # More faults can only delay detection: T_{k+1} >= T_k per target.
    n, f = regime
    k = max(0, f + budget_shift)
    evaluator = BatchEvaluator(algorithm_for(n, f), backend="pure")
    lower = evaluator.search_times(targets, fault_budget=k)
    higher = evaluator.search_times(targets, fault_budget=k + 1)
    for a, b in zip(lower, higher):
        assert b >= a
