"""Golden-file regression tests for deterministic experiment reports.

The closed-form experiments, every registered experiment report, the
CR-degradation sweep's JSON, the scheduled-time campaign reports and
the synchronous confirmation campaign are fully deterministic, so they
are pinned byte-for-byte.  A diff here means either an intentional
formula/rendering change (regenerate the files, see below) or a
regression.

Regenerate after an intentional change::

    python -c "
    from tests.test_golden_reports import regenerate; regenerate()"
"""

import functools
import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

#: Registered experiments whose report is pinned under another name
#: (both print ``render_asymptotics(run_asymptotics())``).
_PINNED_AS_ASYMPTOTICS = ("corollary1", "corollary2")

#: Scheduled-time campaigns, pinned one report line per scenario: every
#: scheduler kind at non-dyadic (0.3, 0.1, 0.7) and, where the quantum
#: can matter, dyadic (0.5, 0.125) quanta, with and without the
#: confirmation protocol.  Some targets sit on quantum boundaries (1.5,
#: 2.1, 2.8, 3.5).
_SCHEDULED_CAMPAIGNS = (
    ("event:adversarial:1.0:0.3", "none"),
    ("event:adversarial:2.0:0.125", "none"),
    ("event:async:0.5:0.1", "none"),
    ("event:async:1.0:0.5", "none"),
    ("event:ssync:0.5:0.3", "none"),
    ("event:ssync:0.3:0.5", "none"),
    ("event:fsync:0.7", "none"),
    ("event:adversarial:1.0:0.3", "confirmation"),
    ("event:async:0.5:0.1", "confirmation"),
    ("event:ssync:0.5:0.3", "confirmation"),
)
_SCHEDULED_TARGETS = (1.0, -1.5, 2.1, -2.8, 3.5, -20.0)
_SCHEDULED_FAULTS = ("adversarial", "crash_stop:1.5", "byzantine", "random")
#: The synchronous confirmation campaign adds a probabilistic sensor, so
#: the seeded vote streams of the protocol's verifiers are pinned too.
_SYNC_CONFIRMATION_FAULTS = _SCHEDULED_FAULTS + ("probabilistic:0.5",)


def _scheduled_campaign(mode, protocol, faults=_SCHEDULED_FAULTS):
    from repro.robustness import chaos_scenarios, run_campaign

    pairs = (
        [(3, 1), (5, 2), (7, 3)]  # the protocol needs n >= 2f + 1
        if protocol == "confirmation"
        else [(3, 1), (4, 2), (5, 2)]
    )
    scenarios = chaos_scenarios(
        pairs,
        _SCHEDULED_TARGETS,
        faults=faults,
        seed=2016,
        protocol=protocol,
        mode=mode,
    )
    report = run_campaign(scenarios).to_dict()
    results = report.pop("results")
    return "\n".join(
        json.dumps(entry, sort_keys=True) for entry in [report] + results
    )


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
    for mode, protocol in _SCHEDULED_CAMPAIGNS:
        name = "campaign_" + mode.replace("event:", "").replace(":", "_")
        if protocol != "none":
            name += f"_{protocol}"
        reports[f"{name}.jsonl"] = _scheduled_campaign(mode, protocol)
    reports["campaign_sync_confirmation.jsonl"] = _scheduled_campaign(
        "sync", "confirmation", _SYNC_CONFIRMATION_FAULTS
    )
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
