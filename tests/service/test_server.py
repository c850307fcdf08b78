"""Tests for the service itself: admission, execution, drain, restart.

Every test runs a real :class:`LineSearchService` (threaded HTTP server
on an ephemeral port) and talks to it through :class:`ServiceClient` —
the same path production traffic takes.  The SIGKILL crash drill lives
in ``test_chaos.py``; here the restart scenarios use an in-process
drain so they stay fast and deterministic.
"""

import http.client
import os
import subprocess
import sys
import threading
import time
import urllib.parse

import pytest

import repro
from repro.errors import InvalidParameterError
from repro.robustness import CampaignExecutor
from repro.service import (
    LineSearchService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    parse_submission,
)
from repro.robustness.campaign import build_scenario
from repro.service.queueing import Job


def _start(tmp_path, **overrides):
    options = {
        "state_dir": str(tmp_path / "state"),
        "parity_check": False,
        "default_deadline": 120.0,
    }
    options.update(overrides)
    service = LineSearchService(ServiceConfig(**options)).start()
    client = ServiceClient(service.address, client_id="tests")
    client.wait_ready(timeout=10.0)
    return service, client


def _grid(scenarios=8, seed=0, **extra):
    """A campaign payload with roughly ``scenarios`` entries."""
    targets = [1.0 + 0.5 * t for t in range(max(1, scenarios // 2))]
    return {
        "pairs": [[3, 1], [4, 2]],
        "targets": targets,
        "faults": ["none"],
        "seed": seed,
        **extra,
    }


def _reference_report(payload):
    sub = parse_submission(payload)
    scenarios = [build_scenario(s, method=sub.method) for s in sub.specs]
    executor = CampaignExecutor(handle_sigterm=False)
    return executor.execute(scenarios, sub.check_invariants).to_dict()


class TestServiceConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": 0},
            {"queue_capacity": 0},
            {"rate_capacity": 0.0},
            {"rate_per_second": -1.0},
            {"cache_size": -1},
            {"default_deadline": 0.0},
            {"max_deadline": -3.0},
            {"scenario_timeout": 0.0},
            {"executor_jobs": 0},
            {"default_method": "warp"},
            {"max_scenarios_per_job": 0},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_bad_config_rejected_at_construction(self, overrides):
        options = {"state_dir": "irrelevant", **overrides}
        with pytest.raises(InvalidParameterError):
            ServiceConfig(**options)

    def test_invalid_parameter_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            ServiceConfig(state_dir="x", workers=0)


class TestSubmitAndFetch:
    def test_campaign_round_trip_matches_direct_execution(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            payload = _grid(8, seed=11)
            accepted = client.submit_campaign(**payload)
            assert accepted["ok"] and not accepted["cached"]
            envelope = client.wait(accepted["job_id"], timeout=60.0)
            assert envelope["state"] == "done"
            assert envelope["report"] == _reference_report(payload)
        finally:
            service.stop()

    def test_single_scenario_served_from_cache_second_time(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            spec = {"n": 3, "f": 1, "target": 2.0, "seed": 5}
            first = client.submit_scenario(spec)
            assert not first["cached"]
            client.wait(first["job_id"], timeout=30.0)
            second = client.submit_scenario(spec)
            assert second["cached"]
            assert second["result"]["ok"] is True
            assert client.ready()["cache"]["hits"] >= 1
        finally:
            service.stop()

    def test_unknown_job_is_not_found(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            with pytest.raises(ServiceError) as info:
                client.poll("job-424242")
            assert info.value.code == "not_found"
        finally:
            service.stop()

    def test_result_of_unfinished_job_is_conflict(self, tmp_path):
        service, client = _start(tmp_path, workers=1)
        try:
            blocker = client.submit_campaign(**_grid(40, seed=1))
            queued = client.submit_campaign(**_grid(8, seed=2))
            with pytest.raises(ServiceError) as info:
                client.result(queued["job_id"])
            assert info.value.code == "conflict"
            client.wait(blocker["job_id"], timeout=60.0)
        finally:
            service.stop()

    def test_malformed_submission_is_bad_request(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            with pytest.raises(ServiceError) as info:
                client.submit_campaign(specs=[{"n": 2, "f": 2, "target": 1}])
            assert info.value.code == "bad_request"
        finally:
            service.stop()

    def test_batch_method_served(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(
                **_grid(6, seed=3), method="batch"
            )
            envelope = client.wait(accepted["job_id"], timeout=60.0)
            assert envelope["state"] == "done"
            report = envelope["report"]
            assert report["failed"] == 0
            assert len(report["results"]) == report["total"]
        finally:
            service.stop()


class TestStreaming:
    def test_stream_ends_with_done_event(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            accepted = client.submit_campaign(**_grid(6, seed=4))
            events = list(client.stream(accepted["job_id"], timeout=30.0))
            kinds = [event["event"] for event in events]
            assert kinds[0] == "snapshot"
            assert kinds[-1] == "done"
            done = events[-1]
            assert done["completed"] == done["total"]
        finally:
            service.stop()


class TestRateLimiting:
    def test_burst_then_rate_limited(self, tmp_path):
        service, client = _start(
            tmp_path, rate_capacity=2.0, rate_per_second=0.001
        )
        try:
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            client.submit_scenario({"n": 3, "f": 1, "target": 2.0})
            with pytest.raises(ServiceError) as info:
                client.submit_scenario({"n": 3, "f": 1, "target": 3.0})
            assert info.value.code == "rate_limited"
            # another client has its own bucket
            other = ServiceClient(service.address, client_id="other")
            other.submit_scenario({"n": 3, "f": 1, "target": 4.0})
        finally:
            service.stop()


class TestOverload:
    def test_soak_sheds_explicitly_and_stays_bounded(self, tmp_path):
        """The acceptance soak: >= 16 concurrent clients against a
        deliberately tiny server.  Every submission is either accepted
        or refused with an explicit ``overloaded``/``rate_limited``
        error; the queue never exceeds its bound; the server keeps
        answering health checks; accepted work completes."""
        capacity = 3
        service, client = _start(
            tmp_path, workers=1, queue_capacity=capacity
        )
        try:
            # keep the single worker busy for the whole soak
            blocker = client.submit_campaign(**_grid(120, seed=9))

            outcomes = []
            lock = threading.Lock()

            def hammer(ident):
                mine = ServiceClient(
                    service.address, client_id=f"soak-{ident}"
                )
                for round_ in range(3):
                    try:
                        body = mine.submit_campaign(
                            specs=[{
                                "n": 3, "f": 1,
                                "target": 1.0 + ident + 0.01 * round_,
                            }]
                        )
                        verdict = "accepted", body.get("job_id")
                    except ServiceError as exc:
                        verdict = exc.code, None
                    with lock:
                        outcomes.append(verdict)
                        depths.append(service.queue.depth())

            depths = []
            threads = [
                threading.Thread(target=hammer, args=(i,)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)

            codes = [code for code, _ in outcomes]
            assert len(codes) == 48
            # overload is an explicit, well-formed refusal — not a
            # timeout, not a crash
            assert "overloaded" in codes
            assert set(codes) <= {"accepted", "overloaded"}
            assert max(depths) <= capacity
            assert client.health()["ok"]

            # everything accepted eventually completes
            accepted = [job for code, job in outcomes if code == "accepted"]
            client.wait(blocker["job_id"], timeout=120.0)
            for job_id in accepted:
                envelope = client.wait(job_id, timeout=60.0)
                assert envelope["state"] == "done"
            ready = client.ready()
            assert ready["queue"]["depth"] == 0
            assert ready["workers"]["alive"] == 1
        finally:
            service.stop()


@pytest.fixture
def deadline_clock(monkeypatch):
    """Job deadlines read a test-driven clock instead of the wall clock.

    ``elapsed(job)`` is how many seconds have passed since ``job`` was
    submitted; it starts at zero for every job, so nothing expires until
    the test says so, however slow the machine.
    """

    class Clock:
        def elapsed(self, job):
            return 0.0

    clock = Clock()
    remaining = Job.remaining_deadline

    def remaining_deadline(job, now=None):
        if now is None:
            now = job.submitted_at + clock.elapsed(job)
        return remaining(job, now)

    monkeypatch.setattr(Job, "remaining_deadline", remaining_deadline)
    return clock


def _hold_jobs(monkeypatch, service):
    """Make every job wait at the start of its execution until released;
    returns ``(entered, release)`` events."""
    entered, release = threading.Event(), threading.Event()
    execute = service._execute_job

    def held(job):
        entered.set()
        assert release.wait(timeout=60.0), "the test never released the job"
        execute(job)

    monkeypatch.setattr(service, "_execute_job", held)
    return entered, release


class TestDeadlines:
    def test_deadline_expires_queued_job(
        self, tmp_path, monkeypatch, deadline_clock
    ):
        service, client = _start(tmp_path, workers=1, queue_capacity=4)
        entered, release = _hold_jobs(monkeypatch, service)
        try:
            blocker = client.submit_campaign(**_grid(80, seed=5))
            # the only worker is now held inside the blocker
            assert entered.wait(timeout=30.0)
            doomed = client.submit_campaign(**_grid(4, seed=6),
                                            deadline=0.05)
            # time passes the doomed job's deadline (not the blocker's
            # 120 s) while it waits in the queue
            deadline_clock.elapsed = lambda job: 1.0
            release.set()
            envelope = client.wait(doomed["job_id"], timeout=60.0)
            assert envelope["state"] == "deadline_exceeded"
            assert envelope["error"] == "deadline_exceeded"
            assert client.wait(blocker["job_id"], timeout=120.0)[
                "state"] == "done"
        finally:
            release.set()
            service.stop()

    def test_deadline_interrupts_running_campaign(
        self, tmp_path, deadline_clock
    ):
        # the deadline passes once the job has completed 5 scenarios
        deadline_clock.elapsed = lambda job: 1.0 if job.completed >= 5 else 0.0
        service, client = _start(tmp_path)
        try:
            doomed = client.submit_campaign(**_grid(400, seed=7),
                                            deadline=0.3)
            envelope = client.wait(doomed["job_id"], timeout=60.0)
            assert envelope["state"] == "deadline_exceeded"
            # partial work stayed journaled and cached: resubmitting the
            # same grid with a sane deadline reuses it
            progressed = client.poll(doomed["job_id"])["completed"]
            assert 5 <= progressed < 400  # expired mid-run
            hits_before = service.cache.stats()["hits"]
            redo = client.submit_campaign(**_grid(400, seed=7))
            redone = client.wait(redo["job_id"], timeout=120.0)
            assert redone["state"] == "done"
            assert redone["cache_hits"] >= progressed
            assert service.cache.stats()["hits"] > hits_before
        finally:
            service.stop()


class TestDrainAndRestart:
    def test_drain_refuses_new_work_and_checkpoints(self, tmp_path):
        payload = _grid(300, seed=8)
        reference = _reference_report(payload)
        state_dir = str(tmp_path / "state")

        service, client = _start(tmp_path)
        accepted = client.submit_campaign(**payload)
        job_id = accepted["job_id"]
        # let it make some progress, then drain mid-campaign
        while client.poll(job_id)["completed"] < 5:
            pass
        service.drain(timeout=30.0)
        assert service.draining
        with pytest.raises((ServiceError, ConnectionError)) as info:
            client.submit_campaign(**_grid(2, seed=99))
        if isinstance(info.value, ServiceError):
            assert info.value.code == "shutting_down"
        interrupted = service.registry.get(job_id)
        assert interrupted.state == "interrupted"
        assert interrupted.completed < interrupted.total

        # restart on the same state dir: the job resumes and the final
        # report is byte-identical to an uninterrupted run, with the
        # checkpointed scenarios served from the warmed cache
        service2 = LineSearchService(
            ServiceConfig(state_dir=state_dir, parity_check=False)
        ).start()
        try:
            client2 = ServiceClient(service2.address, client_id="tests")
            client2.wait_ready(timeout=10.0)
            envelope = client2.wait(job_id, timeout=120.0)
            assert envelope["state"] == "done"
            assert envelope["report"] == reference
            assert envelope["cache_hits"] > 0
            assert service2.cache.stats()["hits"] >= envelope["cache_hits"]
        finally:
            service2.stop()

    def test_completed_jobs_survive_restart(self, tmp_path):
        state_dir = str(tmp_path / "state")
        service, client = _start(tmp_path)
        accepted = client.submit_campaign(**_grid(4, seed=10))
        envelope = client.wait(accepted["job_id"], timeout=60.0)
        service.drain(timeout=30.0)

        service2 = LineSearchService(
            ServiceConfig(state_dir=state_dir, parity_check=False)
        ).start()
        try:
            client2 = ServiceClient(service2.address, client_id="tests")
            client2.wait_ready(timeout=10.0)
            again = client2.result(accepted["job_id"])
            assert again == envelope
            view = client2.poll(accepted["job_id"])
            assert view["state"] == "done"
        finally:
            service2.stop()


class TestResources:
    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_served_jobs_leak_no_file_descriptors(self, tmp_path):
        service, client = _start(tmp_path)

        def serve(seed):
            job_id = client.submit_campaign(**_grid(4, seed=seed))["job_id"]
            for _ in client.stream(job_id, timeout=60.0):
                pass
            assert client.result(job_id)["state"] == "done"

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        try:
            serve(0)  # warm up lazily opened files
            before = open_fds()
            for seed in range(1, 51):
                serve(seed)
            # handler threads close their sockets just after replying
            deadline = time.monotonic() + 5.0
            while open_fds() != before and time.monotonic() < deadline:
                time.sleep(0.02)
            assert open_fds() == before
        finally:
            service.stop()

    def test_keep_alive_requests_do_not_stall(self, tmp_path):
        service, _ = _start(tmp_path)
        address = urllib.parse.urlsplit(service.address)
        connection = http.client.HTTPConnection(
            address.hostname, address.port, timeout=10.0
        )
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            assert time.perf_counter() - started < 0.4
        finally:
            connection.close()
            service.stop()


class TestIntrospection:
    def test_health_ready_and_metrics(self, tmp_path):
        service, client = _start(tmp_path)
        try:
            health = client.health()
            assert health["ok"] and health["protocol"] == 1
            ready = client.ready()
            assert ready["ready"] is True
            assert ready["queue"]["capacity"] == 16
            assert ready["backend"] == "pure"
            client.submit_scenario({"n": 3, "f": 1, "target": 1.0})
            text = client.metrics()
            assert "service_requests_total" in text
            assert "service_queue_depth" in text
        finally:
            service.stop()

    def test_startup_parity_reported_in_readiness(self, tmp_path):
        service, client = _start(tmp_path, parity_check=True)
        try:
            parity = client.ready()["parity"]
            assert parity["checked"] is True
            assert parity["passed"] is True
            assert parity["points"] > 0
            assert parity["backend"] == "pure"
        finally:
            service.stop()

    def test_startup_parity_checks_the_kernels_it_serves_with(
        self, tmp_path
    ):
        # The serving routes run the pure kernels; the startup check must
        # cover exactly those, even where numpy is importable.
        pytest.importorskip("numpy")
        state_dir = str(tmp_path / "state")
        script = (
            "import sys\n"
            "from repro.service import LineSearchService, ServiceConfig\n"
            "service = LineSearchService(ServiceConfig(\n"
            f"    state_dir={state_dir!r}, parity_check=True))\n"
            "parity = service.ready_body()[1]['parity']\n"
            "assert parity['checked'] and parity['passed'], parity\n"
            "assert parity['backend'] == 'pure', parity\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert result.returncode == 0, result.stderr
