"""Unit tests for the linesearch CLI."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in (
            "info", "simulate", "ratio", "table1", "figure5",
            "diagram", "lowerbound", "experiment", "async", "chaos",
            "telemetry", "perf", "dashboard",
        ):
            assert cmd in text

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestInfo:
    def test_proportional(self, capsys):
        code, out, _ = run_cli(capsys, "info", "3", "1")
        assert code == 0
        assert "proportional" in out
        assert "beta*" in out

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "info", "4", "1")
        assert code == 0
        assert "trivial" in out
        assert "beta*" not in out


class TestSimulate:
    def test_adversarial(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "3", "1", "2.0")
        assert code == 0
        assert "detection" in out

    def test_random_faults_seeded(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "3", "1", "2.0", "--faults", "random",
            "--seed", "7",
        )
        assert code == 0

    def test_no_faults(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "4", "1", "-3.0", "--faults", "none"
        )
        assert code == 0
        assert "ratio 1" in out


class TestRatio:
    def test_default_beta(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "3", "1", "--x-max", "40")
        assert code == 0
        assert "agreement with closed form: True" in out

    def test_custom_beta(self, capsys):
        code, out, _ = run_cli(
            capsys, "ratio", "3", "1", "--beta", "2.0", "--x-max", "40"
        )
        assert code == 0
        assert "agreement with closed form: True" in out

    def test_beta_in_trivial_regime_errors(self, capsys):
        code, _, err = run_cli(capsys, "ratio", "4", "1", "--beta", "2.0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "command", [["ratio"], ["batch", "ratio"]], ids=["ratio", "batch"]
    )
    @pytest.mark.parametrize("x_max", ["nan", "inf", "1e308"])
    def test_non_finite_window_exits_2(self, capsys, command, x_max):
        code, out, err = run_cli(
            capsys, *command, "3", "1", "--x-max", x_max
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "must be finite" in err

    def test_batch_ratio_prints_what_ratio_prints(self, capsys):
        _, plain, _ = run_cli(capsys, "ratio", "3", "1", "--x-max", "40")
        code, batch, _ = run_cli(
            capsys, "batch", "ratio", "3", "1", "--x-max", "40"
        )
        assert code == 0
        assert batch == plain


class TestDiagramAndLowerbound:
    def test_single_figure(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--figure", "2")
        assert code == 0
        assert "Figure 2" in out

    def test_all_figures(self, capsys):
        code, out, _ = run_cli(capsys, "diagram")
        assert "Figure 1" in out and "Figure 4" in out
        assert "Figure 6" in out and "Figure 7" in out

    def test_figure7(self, capsys):
        code, out, _ = run_cli(capsys, "diagram", "--figure", "7")
        assert code == 0
        assert "ladder" in out

    def test_svg_output(self, capsys, tmp_path):
        path = tmp_path / "fig3.svg"
        code, _, _ = run_cli(
            capsys, "diagram", "--figure", "3", "--svg", str(path)
        )
        assert code == 0
        assert path.read_text().startswith("<svg")

    def test_lowerbound_game(self, capsys):
        code, out, _ = run_cli(capsys, "lowerbound", "3", "1")
        assert code == 0
        assert "witness" in out


class TestFigure5Command:
    def test_right_side(self, capsys):
        code, out, _ = run_cli(capsys, "figure5", "--side", "right")
        assert code == 0
        assert "asymptotic CR" in out


class TestExperiment:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "experiment")
        assert code == 0
        assert "table1" in out

    def test_unknown_id_errors(self, capsys):
        code, _, err = run_cli(capsys, "experiment", "bogus")
        assert code == 2
        assert "unknown experiment" in err

    def test_run_fast_experiment(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "figure5_right")
        assert code == 0
        assert "asymptotic CR" in out


class TestExportAndValidate:
    def test_export_list(self, capsys):
        code, out, _ = run_cli(capsys, "export")
        assert code == 0
        assert "table1" in out

    def test_export_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "export", "figure5_right")
        assert code == 0
        assert out.startswith("a,asymptotic_value")

    def test_export_to_file(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        code, out, _ = run_cli(
            capsys, "export", "tower", "--out", str(path)
        )
        assert code == 0
        assert "wrote" in out
        assert path.read_text().startswith("time,left,right,width")

    def test_export_unknown_errors(self, capsys):
        code, _, err = run_cli(capsys, "export", "bogus")
        assert code == 2
        assert "no CSV exporter" in err

    def test_validate_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "3", "1")
        assert code == 0
        assert "ADMISSIBLE" in out

    def test_validate_custom_beta(self, capsys):
        code, out, _ = run_cli(
            capsys, "validate", "3", "1", "--beta", "2.0"
        )
        assert code == 0
        assert "ADMISSIBLE" in out


class TestSchedule:
    def test_schedule_table(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "5", "2")
        assert code == 0
        assert "a_4" in out
        assert "kappa = 6" in out

    def test_schedule_with_diagram(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "3", "1", "--diagram")
        assert code == 0
        assert "time flows downward" in out

    def test_schedule_turn_count(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "3", "1", "--turns", "2")
        assert code == 0
        assert "turn 2" in out and "turn 3" not in out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_version_output_names_library_and_version(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit):
            main(["--version"])
        out = capsys.readouterr().out
        assert "linesearch" in out
        assert __version__ in out


class TestChaos:
    def test_small_campaign_all_ok(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chaos",
            "--pairs", "3,1",
            "--targets", "1.0", "-2.0",
            "--faults", "none", "adversarial", "fixed",
            "--seed", "3",
        )
        assert code == 0
        assert "6 scenarios (seed 3)" in out
        assert "6/6 scenarios ok" in out
        assert "0 failure(s) isolated" in out

    def test_bad_pair_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--pairs", "banana")
        assert code == 2
        assert "pair" in err.lower() or "banana" in err

    def test_failures_exit_1_for_ci_gating(self, capsys):
        # (3, 3) is invalid (needs n >= 2f + 2): the scenario fails and
        # is isolated, and the campaign exit code must reflect it
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,3", "--targets", "1.0",
            "--faults", "none", "--seed", "1",
        )
        assert code == 1
        assert "1 failure(s) isolated" in out

    def test_allow_failures_opts_out_of_gating(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,3", "--targets", "1.0",
            "--faults", "none", "--seed", "1", "--allow-failures",
        )
        assert code == 0
        assert "1 failure(s) isolated" in out

    def test_confirmation_protocol_campaign_all_ok(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chaos",
            "--pairs", "3,1", "5,2",
            "--targets", "2.0", "-3.0",
            "--faults", "byzantine_adversarial:0.5;1.5",
            "--protocol", "confirmation",
            "--seed", "9",
        )
        assert code == 0
        assert "protocol confirmation" in out
        assert "4/4 scenarios ok" in out

    def test_default_protocol_not_mentioned(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--seed", "2",
        )
        assert code == 0
        assert "protocol" not in out

    def test_event_mode_campaign_all_ok(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chaos",
            "--pairs", "3,1",
            "--targets", "1.0", "-2.0",
            "--faults", "none", "adversarial",
            "--mode", "event:adversarial:1.0",
            "--seed", "4",
        )
        assert code == 0
        assert "mode event:adversarial:1.0" in out
        assert "4/4 scenarios ok" in out

    def test_default_mode_not_mentioned(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--seed", "2",
        )
        assert code == 0
        assert "mode" not in out

    def test_mode_plus_batch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--mode", "event:async:1.0", "--method", "batch",
        )
        assert code == 2
        assert "batch" in err

    def test_bad_mode_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--mode", "event:bogus",
        )
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize(
        "fault",
        ["crash_stop:abc", "probabilistic:1.5", "fixed:x", "byzantine:a;b"],
    )
    def test_malformed_fault_argument_exits_2(self, capsys, fault):
        code, _, err = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", fault,
        )
        assert code == 2
        assert fault in err and "Traceback" not in err


class TestAsyncCLI:
    def test_sweep_prints_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "async", "sweep", "3", "1",
            "--points", "8", "--delays", "0", "1",
        )
        assert code == 0
        assert "CR degradation: A(3,1)" in out
        assert "max_delay" in out
        assert "overhead" in out

    def test_sweep_report_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "sweep.json"
        code, out, _ = run_cli(
            capsys, "async", "sweep", "3", "1",
            "--points", "8", "--delays", "0", "1",
            "--scheduler", "async", "--seed", "5",
            "--report-json", str(path),
        )
        assert code == 0
        assert f"wrote {path}" in out
        payload = json.loads(path.read_text())
        assert payload["scheduler"] == "async"
        assert payload["seed"] == 5
        assert len(payload["points"]) == 2

    def test_sweep_with_speeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "async", "sweep", "3", "1",
            "--points", "8", "--delays", "0",
            "--speeds", "1.0", "0.5", "1.0",
        )
        assert code == 0
        assert "speeds=(1, 0.5, 1)" in out

    def test_parity_passes_and_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "async", "parity", "--pairs", "3,1", "--targets", "4",
        )
        assert code == 0
        assert "bit-exact" in out

    def test_parity_report_json(self, capsys, tmp_path):
        import json

        path = tmp_path / "parity.json"
        code, out, _ = run_cli(
            capsys, "async", "parity", "--pairs", "3,1",
            "--targets", "3", "--report-json", str(path),
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["passed"] is True

    def test_bad_scheduler_choice_exits(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["async", "sweep", "3", "1", "--scheduler", "fsync"]
            )

    def test_confirmation_below_minimum_fleet_is_isolated(self, capsys):
        # (4, 2) violates n >= 2f + 1: the scenario fails at realize
        # time, is isolated, and gates the exit code
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "4,2", "--targets", "1.0",
            "--faults", "none", "--protocol", "confirmation", "--seed", "1",
        )
        assert code == 1
        assert "1 failure(s) isolated" in out

    def test_unknown_protocol_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["chaos", "--protocol", "paxos"])
        assert info.value.code == 2
        assert "paxos" in capsys.readouterr().err

    def test_resume_requires_journal(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--resume")
        assert code == 2
        assert "--journal" in err

    def test_negative_retries_rejected(self, capsys):
        code, _, err = run_cli(capsys, "chaos", "--retries", "-1")
        assert code == 2
        assert "retries" in err

    def test_parallel_jobs_match_sequential(self, capsys):
        args = (
            "chaos", "--pairs", "3,1", "4,2", "--targets", "1.0", "-2.0",
            "--seed", "5",
        )
        code_seq, out_seq, _ = run_cli(capsys, *args)
        code_par, out_par, _ = run_cli(capsys, *args, "--jobs", "2")
        assert (code_seq, out_seq) == (code_par, out_par)

    def test_journal_resume_and_report_json(self, capsys, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        report_path = str(tmp_path / "report.json")
        base = (
            "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "random", "--seed", "8",
            "--journal", journal,
        )
        code, out, _ = run_cli(capsys, *base, "--report-json", report_path)
        assert code == 0
        assert f"journaled to {journal}" in out

        from repro.robustness import CampaignReport

        with open(report_path, encoding="utf-8") as handle:
            first = CampaignReport.from_json(handle.read())
        assert first.total == 2

        code, out, _ = run_cli(
            capsys, *base, "--resume", "--report-json", report_path
        )
        assert code == 0
        assert f"resumed from {journal}" in out
        with open(report_path, encoding="utf-8") as handle:
            resumed = CampaignReport.from_json(handle.read())
        assert resumed == first

class TestTelemetryCLI:
    def _run_chaos(self, capsys, tmp_path, *extra):
        telemetry_dir = str(tmp_path / "telemetry")
        report_path = str(tmp_path / "report.json")
        code, out, _ = run_cli(
            capsys,
            "chaos",
            "--pairs", "3,1",
            "--targets", "1.0", "-2.0",
            "--faults", "none", "random",
            "--seed", "8",
            "--telemetry-dir", telemetry_dir,
            "--report-json", report_path,
            *extra,
        )
        return code, out, telemetry_dir, report_path

    def test_artifacts_written_and_parseable(self, capsys, tmp_path):
        code, out, telemetry_dir, _ = self._run_chaos(capsys, tmp_path)
        assert code == 0
        assert "telemetry:" in out
        import os

        for name in ("trace.jsonl", "metrics.prom", "summary.txt"):
            assert os.path.exists(os.path.join(telemetry_dir, name)), name

        from repro.observability import read_trace_jsonl

        metadata, spans = read_trace_jsonl(
            os.path.join(telemetry_dir, "trace.jsonl")
        )
        assert metadata["command"] == "chaos"
        assert metadata["seed"] == 8
        assert spans
        assert any(s.name == "campaign.execute" for s in spans)

    def test_prom_counter_matches_report_total(self, capsys, tmp_path):
        # the PR's acceptance criterion: scenarios_completed_total in
        # the Prometheus export equals the campaign report's total
        code, _, telemetry_dir, report_path = self._run_chaos(
            capsys, tmp_path, "--jobs", "2"
        )
        assert code == 0
        import json
        import os
        import re

        with open(report_path, encoding="utf-8") as handle:
            total = len(json.load(handle)["results"])
        with open(
            os.path.join(telemetry_dir, "metrics.prom"), encoding="utf-8"
        ) as handle:
            prom = handle.read()
        match = re.search(
            r"^scenarios_completed_total (\d+)$", prom, re.MULTILINE
        )
        assert match, prom
        assert int(match.group(1)) == total
        assert 'linesearch_build_info{version="' in prom

    def test_telemetry_subcommand_summarizes_trace(self, capsys, tmp_path):
        import os

        _, _, telemetry_dir, _ = self._run_chaos(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys,
            "telemetry",
            os.path.join(telemetry_dir, "trace.jsonl"),
        )
        assert code == 0
        assert "trace from linesearch" in out
        assert "campaign.execute" in out
        assert "simulation.run" in out

    def test_telemetry_subcommand_top_truncates(self, capsys, tmp_path):
        import os

        _, _, telemetry_dir, _ = self._run_chaos(capsys, tmp_path)
        code, out, _ = run_cli(
            capsys,
            "telemetry",
            os.path.join(telemetry_dir, "trace.jsonl"),
            "--top", "2",
        )
        assert code == 0
        assert "more span name(s)" in out

    def test_telemetry_missing_trace_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "telemetry", str(tmp_path / "nope.jsonl")
        )
        assert code == 2
        assert "no trace file" in err

    def test_chaos_without_telemetry_dir_leaves_state_disabled(
        self, capsys
    ):
        from repro.observability import instrument as obs

        run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--seed", "1",
        )
        assert obs.current() is None

    def test_chaos_restores_ambient_telemetry(self, capsys, tmp_path):
        # the chaos command must restore whatever telemetry was active
        # before it swapped in its own
        from repro.observability import instrument as obs

        ambient = obs.enable()
        try:
            self._run_chaos(capsys, tmp_path)
            assert obs.current() is ambient
        finally:
            obs.configure(None)


class TestChaosMore:
    def test_seed_changes_scenarios_not_outcome_count(self, capsys):
        _, out_a, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "random", "--seed", "1",
        )
        _, out_b, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "random", "--seed", "2",
        )
        assert "1 scenarios (seed 1)" in out_a
        assert "1 scenarios (seed 2)" in out_b


class TestTelemetryDirHandling:
    def test_nested_directories_created(self, capsys, tmp_path):
        nested = str(tmp_path / "a" / "b" / "telemetry")
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--telemetry-dir", nested,
        )
        assert code == 0
        import os

        assert os.path.exists(os.path.join(nested, "trace.jsonl"))

    def test_unwritable_path_is_a_clean_error(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code, _, err = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none",
            "--telemetry-dir", str(blocker / "sub"),
        )
        assert code == 2
        assert "error:" in err
        assert "telemetry-dir" in err
        assert "Traceback" not in err


class TestTelemetryPromSummary:
    def test_prom_file_summarized(self, capsys, tmp_path):
        from repro.observability import write_prometheus
        from repro.observability.instrument import Telemetry

        telemetry = Telemetry()
        telemetry.metrics.counter(
            "scenarios_completed_total", "done"
        ).inc(4)
        telemetry.metrics.histogram(
            "scenario_wall_seconds", "wall", buckets=(0.01, 0.1)
        ).observe(0.05)
        path = str(tmp_path / "metrics.prom")
        write_prometheus(path, telemetry)

        code, out, _ = run_cli(capsys, "telemetry", path)
        assert code == 0
        assert "scenarios_completed_total" in out
        assert "counter" in out
        assert "~p50" in out

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "telemetry", str(tmp_path / "absent.prom")
        )
        assert code == 2
        assert "no trace file" in err


class TestPerfCLI:
    def _run_quick(self, capsys, tmp_path, name="bench.json"):
        out_path = str(tmp_path / name)
        code, out, _ = run_cli(
            capsys, "perf", "run", "--suite", "quick",
            "--repeats", "2", "--warmup", "0",
            "--workload", "batch_compile", "--out", out_path,
        )
        return code, out, out_path

    def test_list_runs_nothing(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "perf", "run", "--list")
        assert code == 0
        assert "quick" in out and "engine_sweep" in out
        assert not list(tmp_path.iterdir())

    def test_run_writes_fingerprinted_record(self, capsys, tmp_path):
        import json
        import platform

        code, out, out_path = self._run_quick(capsys, tmp_path)
        assert code == 0
        assert "wrote" in out and "batch_compile" in out
        record = json.load(open(out_path))
        assert record["format"] == "linesearch-bench-suite"
        assert record["fingerprint"]["python"] == platform.python_version()
        assert "cpu_count" in record["fingerprint"]
        seconds = record["workloads"]["batch_compile"]["seconds"]
        assert seconds["median"] > 0

    def test_compare_same_record_passes(self, capsys, tmp_path):
        _, _, out_path = self._run_quick(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "perf", "compare", out_path, out_path)
        assert code == 0
        assert "PASS" in out

    def test_compare_injected_regression_fails(self, capsys, tmp_path):
        import json

        _, _, base_path = self._run_quick(capsys, tmp_path)
        record = json.load(open(base_path))
        seconds = record["workloads"]["batch_compile"]["seconds"]
        seconds["median"] *= 10
        seconds["stdev"] = 0.0
        slow_path = str(tmp_path / "slow.json")
        json.dump(record, open(slow_path, "w"))

        code, out, _ = run_cli(capsys, "perf", "compare", base_path, slow_path)
        assert code == 1
        assert "FAIL" in out and "batch_compile" in out

        # the reverse direction is an improvement, not a failure
        code, out, _ = run_cli(capsys, "perf", "compare", slow_path, base_path)
        assert code == 0
        assert "improved" in out

    def test_compare_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "perf", "compare",
            str(tmp_path / "a.json"), str(tmp_path / "b.json"),
        )
        assert code == 2
        assert "no benchmark record" in err

    def test_report_pretty_prints(self, capsys, tmp_path):
        _, _, out_path = self._run_quick(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "perf", "report", out_path)
        assert code == 0
        assert "fingerprint:" in out
        assert "median s" in out and "batch_compile" in out

    def test_run_unknown_suite_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "perf", "run", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err


class TestPerfFlamegraph:
    def _trace_from_chaos(self, capsys, tmp_path):
        telemetry_dir = str(tmp_path / "telemetry")
        code, _, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "adversarial", "--seed", "5",
            "--telemetry-dir", telemetry_dir,
        )
        assert code == 0
        import os

        return os.path.join(telemetry_dir, "trace.jsonl")

    def test_roots_match_trace_root_spans(self, capsys, tmp_path):
        # acceptance criterion: collapsed-stack roots == the root spans
        # of the scenario trace in the JSONL file
        trace = self._trace_from_chaos(capsys, tmp_path)
        flame_path = str(tmp_path / "flame.txt")
        code, out, _ = run_cli(
            capsys, "perf", "flamegraph", trace, "--out", flame_path,
        )
        assert code == 0
        assert "collapsed stack" in out

        with open(flame_path) as handle:
            lines = handle.read().splitlines()
        flame_roots = {line.split(" ")[0].split(";")[0] for line in lines}

        from repro.observability import read_trace_jsonl
        from repro.observability.tracing import roots

        _, spans = read_trace_jsonl(trace)
        trace_roots = {s.name for s in roots(spans)}
        assert flame_roots == trace_roots
        assert "campaign.execute" in flame_roots

    def test_stdout_mode(self, capsys, tmp_path):
        trace = self._trace_from_chaos(capsys, tmp_path)
        code, out, _ = run_cli(capsys, "perf", "flamegraph", trace)
        assert code == 0
        assert any(
            line.startswith("campaign.execute ")
            for line in out.splitlines()
        )
        # every line is "<stack> <integer>"
        for line in out.strip().splitlines():
            stack, value = line.rsplit(" ", 1)
            assert stack and int(value) >= 0

    def test_missing_trace_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "perf", "flamegraph", str(tmp_path / "absent.jsonl")
        )
        assert code == 2
        assert "no trace file" in err


class TestVariants:
    def test_registered_in_help(self):
        text = build_parser().format_help()
        assert "variants" in text

    def test_bound_prints_optima_and_evacuation(self, capsys):
        code, out, _ = run_cli(
            capsys, "variants", "bound", "0.75",
            "--target", "3.0", "--pair", "3,1",
        )
        assert code == 0
        assert "gamma* = 2.66666666667" in out
        assert "R*   = 5.4" in out
        assert "E[T(3)] at gamma*    = 13.4" in out
        assert "evacuation with A(3,1):" in out
        assert "feasible (n >= 2f+1): yes" in out
        assert "23.9323" in out

    def test_bound_infeasible_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "variants", "bound", "0.5", "--pair", "2,1",
        )
        assert code == 0
        assert "feasible (n >= 2f+1): no" in out
        assert "inf" in out

    def test_sweep_validates_and_writes_report(self, capsys, tmp_path):
        import json

        report_path = str(tmp_path / "sweep.json")
        code, out, _ = run_cli(
            capsys, "variants", "sweep", "--ps", "0.5", "0.75",
            "--report-json", report_path,
        )
        assert code == 0
        assert "2/2" in out
        with open(report_path) as handle:
            data = json.load(handle)
        assert data["format"] == "linesearch-halfline-sweep-report"
        assert data["passed"] is True

    def test_sweep_turning_point_target_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "variants", "sweep", "--ps", "0.75",
            "--target", str(8.0 / 3.0),
        )
        assert code == 2
        assert "turning point" in err

    def test_evacuate_reports_commit_and_gather(self, capsys):
        code, out, _ = run_cli(
            capsys, "variants", "evacuate", "3", "1", "2.0",
            "--fault", "crash_stop:1.0",
        )
        assert code == 0
        assert "committed at t=" in out
        assert "reliable robot(s) gathered" in out

    def test_evacuate_infeasible_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "variants", "evacuate", "2", "1", "2.0",
        )
        assert code == 2
        assert "reliable majority" in err

    def test_parity_bit_exact(self, capsys, tmp_path):
        import json

        report_path = str(tmp_path / "parity.json")
        code, out, _ = run_cli(
            capsys, "variants", "parity", "--pairs", "3,1",
            "--targets", "2", "--report-json", report_path,
        )
        assert code == 0
        assert "bit-exact" in out
        with open(report_path) as handle:
            data = json.load(handle)
        assert data["format"] == "linesearch-variant-parity-report"
        assert data["passed"] is True


class TestChaosVariant:
    def test_halfline_campaign_all_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1",
            "--targets", "2.0", "-1.5",
            "--faults", "none", "adversarial",
            "--variant", "halfline", "--seed", "6",
        )
        assert code == 0
        assert "variant halfline" in out
        assert "4/4 scenarios ok" in out

    def test_evacuation_campaign_all_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "5,2",
            "--targets", "2.0",
            "--faults", "none", "crash_stop:1.0",
            "--variant", "evacuation", "--seed", "6",
        )
        assert code == 0
        assert "variant evacuation" in out
        assert "4/4 scenarios ok" in out

    def test_default_variant_not_mentioned(self, capsys):
        code, out, _ = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--faults", "none", "--seed", "2",
        )
        assert code == 0
        assert "variant" not in out

    def test_variant_plus_batch_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--pairs", "3,1", "--targets", "1.0",
            "--variant", "halfline", "--method", "batch",
        )
        assert code == 2
        assert "variant" in err


class TestDashboard:
    @pytest.fixture()
    def telemetry_dir(self, tmp_path):
        """A drained telemetry dir from a small traced campaign."""
        from repro.observability import (
            instrument as obs,
            write_prometheus,
            write_trace_jsonl,
        )
        from repro.observability.instrument import Telemetry
        from repro.robustness.campaign import chaos_scenarios, run_campaign

        telemetry = Telemetry()
        previous = obs.configure(telemetry)
        try:
            report = run_campaign(
                chaos_scenarios(
                    [(3, 1)], [1.0, -2.0],
                    faults=("none", "crash_stop:1.5"), seed=7,
                )
            )
        finally:
            obs.configure(previous)
        assert report.failed == 0
        out = tmp_path / "telemetry"
        out.mkdir()
        write_trace_jsonl(str(out / "trace.jsonl"), telemetry)
        write_prometheus(str(out / "metrics.prom"), telemetry)
        return str(out)

    def test_replay_describes_panels(self, capsys, telemetry_dir):
        code, out, _ = run_cli(
            capsys, "dashboard", "--telemetry-dir", telemetry_dir,
        )
        assert code == 0
        assert f"replayed {telemetry_dir}" in out
        assert "campaign progress:" in out
        assert "A(3,1) none" in out

    def test_replay_writes_canonical_state_and_html(
        self, capsys, telemetry_dir, tmp_path
    ):
        from repro.dashboard import replay_state

        state_path = str(tmp_path / "state.json")
        html_path = str(tmp_path / "dashboard.html")
        svg_path = str(tmp_path / "panel.svg")
        code, out, _ = run_cli(
            capsys, "dashboard", "--telemetry-dir", telemetry_dir,
            "--state-json", state_path, "--html", html_path,
            "--svg", svg_path,
        )
        assert code == 0
        for path in (state_path, html_path, svg_path):
            assert f"wrote {path}" in out
        with open(state_path, encoding="utf-8") as handle:
            assert handle.read() == replay_state(telemetry_dir).to_json()
        with open(html_path, encoding="utf-8") as handle:
            html = handle.read()
        assert "const LIVE = false;" in html
        assert 'id="replay-state"' in html
        with open(svg_path, encoding="utf-8") as handle:
            assert handle.read().startswith("<svg")

    def test_missing_telemetry_dir_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "dashboard", "--telemetry-dir", str(tmp_path / "nope"),
        )
        assert code == 2
        assert "trace" in err

    def test_attach_and_replay_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["dashboard", "--attach", "http://127.0.0.1:1",
                 "--telemetry-dir", "out"]
            )

    def test_one_source_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dashboard"])
