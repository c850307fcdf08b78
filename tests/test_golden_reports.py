"""Golden-file regression tests for deterministic experiment reports.

The closed-form experiments, every registered experiment report and the
CR-degradation sweep's JSON are fully deterministic, so they are pinned
byte-for-byte.  A diff here means either an
intentional formula/rendering change (regenerate the files, see below)
or a regression.

Regenerate after an intentional change::

    python -c "
    from tests.test_golden_reports import regenerate; regenerate()"
"""

import functools
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Registered experiments whose report is pinned under another name
#: (both print ``render_asymptotics(run_asymptotics())``).
_PINNED_AS_ASYMPTOTICS = ("corollary1", "corollary2")


@functools.lru_cache(maxsize=None)
def _current_reports():
    from repro.async_sched import run_degradation_sweep
    from repro.experiments.asymptotics import (
        render_asymptotics,
        run_asymptotics,
    )
    from repro.experiments.extended_table import (
        render_extended_table,
        run_extended_table,
    )
    from repro.experiments.figure5 import (
        figure5_left,
        figure5_right,
        render_figure5_left,
        render_figure5_right,
    )
    from repro.experiments.registry import experiment_ids, run_experiment
    from repro.experiments.table1 import render_table1, run_table1

    from repro.experiments.diagrams import all_diagrams
    from repro.experiments.tower import tower_diagram

    reports = {
        "table1_formulas.txt": render_table1(run_table1(measure=False)),
        "figure5_left.txt": render_figure5_left(figure5_left()),
        "figure5_right.txt": render_figure5_right(figure5_right()),
        "asymptotics.txt": render_asymptotics(run_asymptotics()),
        "extended_table_n6.txt": render_extended_table(
            run_extended_table(6)
        ),
        "diagram_tower.txt": tower_diagram(),
        "degradation_3_1.json": run_degradation_sweep(3, 1).to_json(),
        "degradation_3_1_speeds.json": run_degradation_sweep(
            3, 1, speeds=(1, 0.8, 0.6)
        ).to_json(),
    }
    for name, art in all_diagrams().items():
        reports[f"diagram_{name}.txt"] = art
    for experiment_id in experiment_ids():
        if experiment_id not in _PINNED_AS_ASYMPTOTICS:
            reports[f"experiment_{experiment_id}.txt"] = run_experiment(
                experiment_id
            )
    return reports


def regenerate():  # pragma: no cover - maintenance helper
    """Rewrite all golden files from current code."""
    for name, text in _current_reports().items():
        with open(os.path.join(GOLDEN_DIR, name), "w") as handle:
            handle.write(text + "\n")


@pytest.mark.parametrize("name", sorted(_current_reports()))
def test_report_matches_golden(name):
    path = os.path.join(GOLDEN_DIR, name)
    assert os.path.exists(path), f"golden file missing: {name}"
    with open(path, encoding="utf-8") as handle:
        expected = handle.read().rstrip("\n")
    actual = _current_reports()[name].rstrip("\n")
    assert actual == expected, (
        f"report {name} changed; if intentional, regenerate the golden "
        "files (see module docstring)"
    )
