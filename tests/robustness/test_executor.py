"""Tests for the resilient executor: retries, watchdog, crashes, resume."""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.errors import InvalidParameterError
from repro.robots import Fleet
from repro.robots.faults import AdversarialFaults
from repro.robustness import (
    CampaignExecutor,
    CampaignJournal,
    RetryPolicy,
    Scenario,
    ScenarioSpec,
    build_scenario,
    chaos_scenarios,
    run_campaign,
)
from repro.trajectory import LinearTrajectory

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
SRC = os.path.join(REPO_ROOT, "src")


def _healthy_fleet():
    return (
        Fleet.from_trajectories([LinearTrajectory(1), LinearTrajectory(-1)]),
        AdversarialFaults(0),
    )


# module-level factories so scenarios pickle by reference into workers

def _hang_build():
    time.sleep(300.0)
    return _healthy_fleet()  # pragma: no cover - killed long before


def _crash_build():
    os._exit(3)


def hanging_scenario():
    return Scenario(
        spec=ScenarioSpec(2, 0, 1.0, "none", 101), build=_hang_build
    )


def crashing_scenario():
    return Scenario(
        spec=ScenarioSpec(2, 0, 1.0, "none", 202), build=_crash_build
    )


class TestRetryPolicy:
    def test_default_matches_historical_retry_once(self):
        policy = RetryPolicy()
        stochastic = build_scenario(ScenarioSpec(3, 1, 1.0, "random", 1))
        deterministic = build_scenario(ScenarioSpec(3, 1, 1.0, "fixed", 1))
        assert policy.should_retry(stochastic, 1)
        assert not policy.should_retry(stochastic, 2)
        assert not policy.should_retry(deterministic, 1)

    def test_none_never_retries(self):
        stochastic = build_scenario(ScenarioSpec(3, 1, 1.0, "random", 1))
        assert not RetryPolicy.none().should_retry(stochastic, 1)

    def test_retry_deterministic_opt_in(self):
        policy = RetryPolicy(max_attempts=3, retry_deterministic=True)
        deterministic = build_scenario(ScenarioSpec(3, 1, 1.0, "fixed", 1))
        assert policy.should_retry(deterministic, 2)
        assert not policy.should_retry(deterministic, 3)

    def test_backoff_is_exponential(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_factor=3.0)
        assert [policy.delay(k) for k in (1, 2, 3)] == [0.5, 1.5, 4.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.25)
        delays = {policy.delay(1, seed=42) for _ in range(5)}
        assert len(delays) == 1
        (delay,) = delays
        assert 0.75 <= delay <= 1.25
        assert policy.delay(1, seed=42) != policy.delay(1, seed=43)

    def test_invalid_policies_rejected(self):
        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=2.0)

    def test_executor_validates_configuration(self):
        with pytest.raises(InvalidParameterError):
            CampaignExecutor(jobs=0)
        with pytest.raises(InvalidParameterError):
            CampaignExecutor(timeout=0.0)


class TestAttemptHistory:
    def test_success_after_retries_keeps_error_history(self):
        calls = []

        def flaky_build():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError(f"transient {len(calls)}")
            return _healthy_fleet()

        scenario = Scenario(
            spec=ScenarioSpec(2, 0, 1.0, "random", 5),
            build=flaky_build,
            stochastic=True,
        )
        report = run_campaign(
            [scenario], retry_policy=RetryPolicy(max_attempts=3)
        )
        result = report.results[0]
        assert result.ok
        assert result.attempts == 3
        assert result.attempt_errors == (
            "builtins.RuntimeError: transient 1",
            "builtins.RuntimeError: transient 2",
        )

    def test_final_failure_records_every_attempt_error(self):
        def always_broken():
            raise RuntimeError("never works")

        scenario = Scenario(
            spec=ScenarioSpec(2, 0, 1.0, "random", 6),
            build=always_broken,
            stochastic=True,
        )
        report = run_campaign(
            [scenario], retry_policy=RetryPolicy(max_attempts=3)
        )
        result = report.results[0]
        assert not result.ok
        assert result.attempts == 3
        assert len(result.attempt_errors) == 3


class TestWatchdogTimeout:
    def test_hanging_scenario_timed_out_rest_completes(self):
        scenarios = [hanging_scenario()] + chaos_scenarios(
            [(3, 1)], [1.0, -2.0], ["none", "adversarial"], seed=4
        )
        started = time.monotonic()
        executor = CampaignExecutor(jobs=2, timeout=1.0)
        report = executor.execute(scenarios)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0  # nowhere near the 300s hang
        assert report.total == len(scenarios)
        assert report.failed == 1
        failure = report.failures()[0]
        assert failure.error == "ScenarioTimeoutError"
        assert "wall-clock budget" in failure.error_message
        assert failure.spec.seed == 101
        assert all(r.ok for r in report.results[1:])

    def test_timeout_with_single_job_still_enforced(self):
        report = CampaignExecutor(jobs=1, timeout=1.0).execute(
            [hanging_scenario()]
        )
        assert report.failures()[0].error == "ScenarioTimeoutError"


class TestWorkerCrash:
    def test_crashed_scenario_requeued_once_then_failed(self):
        scenarios = [crashing_scenario()] + chaos_scenarios(
            [(3, 1)], [1.0], ["none", "adversarial"], seed=9
        )
        report = CampaignExecutor(jobs=2, timeout=30.0).execute(scenarios)
        failure = report.failures()[0]
        assert failure.error == "WorkerCrashError"
        assert failure.attempts == 2  # original dispatch + one requeue
        assert "exit code 3" in failure.error_message
        assert len(failure.attempt_errors) == 2
        assert report.failed == 1
        assert all(r.ok for r in report.results[1:])


class TestParallelEquivalence:
    def test_parallel_and_sequential_reports_agree_on_seeded_grid(self):
        def grid():
            return chaos_scenarios(
                pairs=[(3, 1), (4, 2), (5, 3), (6, 2)],
                targets=[1.0, -1.5, 2.5, -4.0],
                seed=2026,
            )

        assert len(grid()) >= 100
        sequential = CampaignExecutor(jobs=1).execute(grid())
        parallel = CampaignExecutor(jobs=4).execute(grid())
        assert sequential.to_json() == parallel.to_json()

    def test_unpicklable_scenario_falls_back_inline(self):
        inline = Scenario(
            spec=ScenarioSpec(2, 0, 1.0, "none", 77),
            build=lambda: _healthy_fleet(),  # closures do not pickle
        )
        scenarios = chaos_scenarios([(3, 1)], [1.0], ["none"], seed=2)
        report = CampaignExecutor(jobs=2, timeout=30.0).execute(
            scenarios + [inline]
        )
        assert report.total == 2
        assert report.failed == 0
        # results stay in scenario order despite the split execution
        assert [r.spec.seed for r in report.results][-1] == 77


class TestJournalResume:
    def test_resume_skips_journaled_scenarios(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        builds = []

        def counted(seed):
            def factory():
                builds.append(seed)
                return _healthy_fleet()

            return Scenario(
                spec=ScenarioSpec(2, 0, 1.0, "none", seed), build=factory
            )

        scenarios = [counted(1), counted(2), counted(3)]
        first = CampaignExecutor(journal_path=journal).execute(scenarios)
        assert builds == [1, 2, 3]
        resumed = CampaignExecutor(journal_path=journal, resume=True).execute(
            scenarios
        )
        assert builds == [1, 2, 3]  # nothing re-ran
        assert resumed.to_json() == first.to_json()

    def test_partial_journal_resumes_only_missing(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")

        def grid():
            return chaos_scenarios(
                [(3, 1), (4, 2)], [1.0, -2.0], ["none", "random"], seed=3
            )

        uninterrupted = CampaignExecutor(jobs=1).execute(grid())
        # journal only the first half, as if the driver died mid-sweep
        half = len(grid()) // 2
        partial = CampaignExecutor(journal_path=journal).execute(
            grid()[:half]
        )
        assert partial.total == half
        resumed = CampaignExecutor(journal_path=journal, resume=True).execute(
            grid()
        )
        assert resumed.to_json() == uninterrupted.to_json()

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        CampaignExecutor(journal_path=journal).execute(
            chaos_scenarios([(3, 1)], [1.0], ["none"], seed=1)
        )
        report = CampaignExecutor(journal_path=journal).execute(
            chaos_scenarios([(3, 1)], [2.0], ["none"], seed=2)
        )
        assert report.total == 1
        from repro.robustness import CampaignJournal

        assert len(CampaignJournal.load(journal).entries) == 1

    def test_resume_after_torn_tail_matches_uninterrupted(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")

        def grid():
            return chaos_scenarios(
                [(3, 1), (4, 2)], [1.0, -2.0, 3.5], ["none", "random"],
                seed=29,
            )

        uninterrupted = CampaignExecutor(jobs=1).execute(grid())
        CampaignExecutor(journal_path=journal).execute(grid())
        # a crash mid-append: the last line is cut in half
        with open(journal, "rb") as handle:
            data = handle.read()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        with open(journal, "wb") as handle:
            handle.write(data[: start + (len(data) - start) // 2])

        resumed = CampaignExecutor(journal_path=journal, resume=True).execute(
            grid()
        )
        assert resumed.to_json() == uninterrupted.to_json()
        assert len(CampaignJournal.load(journal).entries) == len(grid())
        with open(journal, "rb") as handle:
            for line in handle.read().splitlines():
                json.loads(line)  # no torn or fused line remains


DRIVER_SCRIPT = textwrap.dedent(
    """
    import os, signal, sys

    flag, journal, out = sys.argv[1], sys.argv[2], sys.argv[3]

    from repro.robots import Fleet
    from repro.robots.faults import AdversarialFaults
    from repro.robustness import (
        CampaignExecutor, Scenario, ScenarioSpec, chaos_scenarios,
    )
    from repro.trajectory import LinearTrajectory

    def killer_build():
        if not os.path.exists(flag):
            os.kill(os.getpid(), signal.SIGKILL)  # die mid-campaign
        return (
            Fleet.from_trajectories(
                [LinearTrajectory(1), LinearTrajectory(-1)]
            ),
            AdversarialFaults(0),
        )

    scenarios = chaos_scenarios(
        [(3, 1)], [1.0, -2.0], ["none", "adversarial", "random"], seed=13
    )
    scenarios.insert(
        4,
        Scenario(
            spec=ScenarioSpec(2, 0, 1.5, "none", seed=99), build=killer_build
        ),
    )
    report = CampaignExecutor(journal_path=journal, resume=True).execute(
        scenarios
    )
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(report.to_json())
    """
)


class TestSigkillResume:
    """The acceptance criterion: SIGKILL the driver mid-campaign, resume,
    and get a report identical to an uninterrupted run."""

    def run_driver(self, tmp_path, flag, journal, out):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        script = tmp_path / "driver.py"
        script.write_text(DRIVER_SCRIPT)
        return subprocess.run(
            [sys.executable, str(script), flag, journal, out],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_killed_campaign_resumes_byte_identical(self, tmp_path):
        flag = str(tmp_path / "disarm.flag")
        journal = str(tmp_path / "journal.jsonl")
        out = str(tmp_path / "resumed.json")

        # run 1: the scenario at index 4 SIGKILLs the driver
        first = self.run_driver(tmp_path, flag, journal, out)
        assert first.returncode == -signal.SIGKILL, first.stderr
        assert not os.path.exists(out)

        from repro.robustness import CampaignJournal

        entries = CampaignJournal.load(journal).entries
        assert len(entries) == 4  # everything before the kill survived

        # run 2: disarmed, resumed from the journal
        open(flag, "w").close()
        second = self.run_driver(tmp_path, flag, journal, out)
        assert second.returncode == 0, second.stderr
        with open(out, encoding="utf-8") as handle:
            resumed_json = handle.read()

        # the journal gained only the scenarios the kill threw away
        assert len(CampaignJournal.load(journal).entries) == 7

        # uninterrupted control run: fresh journal, killer disarmed
        journal2 = str(tmp_path / "journal2.jsonl")
        out2 = str(tmp_path / "uninterrupted.json")
        control = self.run_driver(tmp_path, flag, journal2, out2)
        assert control.returncode == 0, control.stderr
        with open(out2, encoding="utf-8") as handle:
            control_json = handle.read()

        assert resumed_json == control_json
