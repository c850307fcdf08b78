"""Tests for the crash-safe campaign journal: durability and recovery."""

import json
import os

import pytest

from repro.errors import JournalError
from repro.robustness import (
    CampaignJournal,
    CampaignReport,
    ScenarioResult,
    ScenarioSpec,
    build_scenario,
    scenario_key,
)


def make_result(seed=1, ok=True, target=2.0):
    spec = ScenarioSpec(3, 1, target, "none", seed)
    if ok:
        return ScenarioResult(
            spec=spec,
            ok=True,
            detection_time=4.25,
            competitive_ratio=2.125,
            detecting_robot=0,
            faulty_robots=(1,),
        )
    return ScenarioResult(
        spec=spec,
        ok=False,
        attempts=2,
        error="SimulationError",
        error_message="boom",
        attempt_errors=("RuntimeError: flaky", "SimulationError: boom"),
    )


class TestScenarioKey:
    def test_deterministic_and_distinct(self):
        a = ScenarioSpec(3, 1, 2.0, "random", 7)
        assert scenario_key(a) == scenario_key(ScenarioSpec(3, 1, 2.0, "random", 7))
        assert scenario_key(a) != scenario_key(ScenarioSpec(3, 1, 2.0, "random", 8))
        assert scenario_key(a) != scenario_key(ScenarioSpec(3, 1, -2.0, "random", 7))

    def test_key_survives_serialization_round_trip(self):
        spec = ScenarioSpec(5, 3, -4.0, "probabilistic:0.5", 123)
        assert scenario_key(ScenarioSpec.from_dict(spec.to_dict())) == scenario_key(spec)


class TestResultRoundTrip:
    def test_success_round_trips(self):
        result = make_result(ok=True)
        assert ScenarioResult.from_dict(result.to_dict()) == result

    def test_failure_round_trips_with_attempt_errors(self):
        result = make_result(ok=False)
        back = ScenarioResult.from_dict(result.to_dict())
        assert back == result
        assert back.attempt_errors == ("RuntimeError: flaky", "SimulationError: boom")

    def test_infinite_detection_time_round_trips_as_strict_json(self):
        result = ScenarioResult(
            spec=ScenarioSpec(3, 1, 2.0, "none", 1),
            ok=True,
            detection_time=float("inf"),
        )
        text = json.dumps(result.to_dict())  # must not need Infinity literals
        assert "Infinity" not in text
        assert ScenarioResult.from_dict(json.loads(text)) == result


class TestReportRoundTrip:
    def test_report_json_round_trips(self):
        report = CampaignReport(results=[make_result(1), make_result(2, ok=False)])
        back = CampaignReport.from_json(report.to_json())
        assert back == report
        assert back.to_json() == report.to_json()

    def test_report_json_is_canonical(self):
        a = CampaignReport(results=[make_result(5)])
        b = CampaignReport(results=[make_result(5)])
        assert a.to_json() == b.to_json()


class TestJournalPersistence:
    def test_record_and_load_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        journal.record(0, make_result(1))
        journal.record(1, make_result(2, ok=False))
        loaded = CampaignJournal.load(path)
        assert loaded.results() == [make_result(1), make_result(2, ok=False)]

    def test_flush_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        journal.record(0, make_result())
        assert os.path.exists(path)
        assert not os.path.exists(path + ".tmp")

    def test_torn_trailing_line_recovered(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        for i in range(3):
            journal.record(i, make_result(i))
        # simulate a crash mid-write: chop the last line in half
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        torn = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(torn)
        loaded = CampaignJournal.load(path)
        assert loaded.results() == [make_result(0), make_result(1)]

    def test_missing_journal_rejected(self, tmp_path):
        with pytest.raises(JournalError):
            CampaignJournal.load(str(tmp_path / "nope.jsonl"))

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(JournalError):
            CampaignJournal.load(str(path))

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(JournalError):
            CampaignJournal.load(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"format": "linesearch-campaign-journal", "version": 99}\n'
        )
        with pytest.raises(JournalError):
            CampaignJournal.load(str(path))

    def test_checkpoint_every_validated(self, tmp_path):
        with pytest.raises(JournalError):
            CampaignJournal(str(tmp_path / "j.jsonl"), checkpoint_every=0)


def _tear_last_line(path):
    """Chop the journal's last line in half, as a crash mid-append would."""
    with open(path, "rb") as handle:
        data = handle.read()
    start = data.rstrip(b"\n").rfind(b"\n") + 1
    with open(path, "wb") as handle:
        handle.write(data[: start + (len(data) - start) // 2])
    return start


class TestAppendOnly:
    def test_format_unchanged_and_no_rewrites(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def counting_replace(src, dst):
            replaced.append(dst)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", counting_replace)
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        results = [make_result(i, ok=i % 7 != 0) for i in range(500)]
        for index, result in enumerate(results):
            journal.record(index, result)

        expected = json.dumps(
            {"format": "linesearch-campaign-journal", "version": 1},
            sort_keys=True,
        ) + "\n"
        for index, result in enumerate(results):
            entry = {
                "key": scenario_key(result.spec),
                "index": index,
                "result": result.to_dict(),
            }
            expected += json.dumps(entry, sort_keys=True) + "\n"
        with open(path, "rb") as handle:
            assert handle.read() == expected.encode("utf-8")
        assert len(replaced) <= 1  # creation only
        assert os.listdir(tmp_path) == ["journal.jsonl"]
        assert CampaignJournal.load(path).results() == results

    def test_resume_truncates_torn_tail_before_appending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        for i in range(3):
            journal.record(i, make_result(i))
        intact = _tear_last_line(path)

        resumed = CampaignJournal.load(path)
        assert resumed.results() == [make_result(0), make_result(1)]
        resumed.record(2, make_result(2))
        resumed.record(3, make_result(3))

        with open(path, "rb") as handle:
            data = handle.read()
        assert len(data) > intact
        for line in data.splitlines():
            json.loads(line)  # no fused, corrupt line
        assert CampaignJournal.load(path).results() == [
            make_result(i) for i in range(4)
        ]

    def test_unterminated_last_line_counts_as_torn(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        journal.record(0, make_result(0))
        journal.record(1, make_result(1))
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-1])  # every byte but the final newline

        resumed = CampaignJournal.load(path)
        assert resumed.results() == [make_result(0)]
        resumed.record(1, make_result(1))
        with open(path, "rb") as handle:
            assert handle.read() == data

    @pytest.mark.parametrize("every, fsyncs", [(1, 8), (4, 2)])
    def test_fsync_every_checkpoint(
        self, tmp_path, monkeypatch, every, fsyncs
    ):
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path, checkpoint_every=every)
        journal.flush(fsync=True)
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        for i in range(8):
            journal.record(i, make_result(i))
        assert len(synced) == fsyncs
        assert len(CampaignJournal.load(path).entries) == 8


class TestJournalMatching:
    def test_match_pairs_results_with_scenarios(self, tmp_path):
        scenarios = [
            build_scenario(ScenarioSpec(3, 1, 2.0, "none", seed))
            for seed in (1, 2, 3)
        ]
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        journal.record(1, ScenarioResult(spec=scenarios[1].spec, ok=True))
        completed = CampaignJournal.load(path).match(scenarios)
        assert set(completed) == {1}
        assert completed[1].spec == scenarios[1].spec

    def test_duplicate_specs_consumed_in_order(self, tmp_path):
        spec = ScenarioSpec(3, 1, 2.0, "none", 7)
        scenarios = [build_scenario(spec), build_scenario(spec)]
        path = str(tmp_path / "journal.jsonl")
        journal = CampaignJournal(path)
        journal.record(0, ScenarioResult(spec=spec, ok=True, attempts=1))
        completed = CampaignJournal.load(path).match(scenarios)
        # only one journaled entry: only the first occurrence is matched
        assert set(completed) == {0}
