"""Tests for jobs, the durable registry, and the bounded queue."""

import json
import threading

import pytest

from repro.errors import InvalidParameterError
from repro.robustness import CampaignReport
from repro.service.protocol import ServiceError, parse_submission
from repro.service.queueing import AdmissionQueue, Job, JobRegistry


def _submission(n_specs=1, deadline=None):
    return parse_submission(
        {
            "specs": [
                {"n": 3, "f": 1, "target": float(t), "seed": t}
                for t in range(1, n_specs + 1)
            ],
            **({"deadline": deadline} if deadline else {}),
        }
    )


class TestAdmissionQueue:
    def test_capacity_validated(self):
        with pytest.raises(InvalidParameterError, match="capacity"):
            AdmissionQueue(0)

    def test_offer_is_strictly_bounded(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        assert queue.depth() == 2

    def test_fifo_order(self):
        queue = AdmissionQueue(capacity=3)
        for item in "abc":
            queue.offer(item)
        assert [queue.take(0.01) for _ in range(3)] == ["a", "b", "c"]

    def test_take_times_out_empty(self):
        assert AdmissionQueue(1).take(timeout=0.01) is None

    def test_close_rejects_offers_and_wakes_takers(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer("a")
        got = []
        thread = threading.Thread(
            target=lambda: got.append(queue.take(timeout=5.0))
        )
        queue.close()
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert got == ["a"]  # closed queues still drain
        assert not queue.offer("b")
        assert queue.take(timeout=0.01) is None


class TestJob:
    def test_deadline_arithmetic(self):
        job = Job("job-1", _submission(deadline=10.0), submitted_at=100.0)
        assert job.deadline_at == 110.0
        assert not job.expired(now=105.0)
        assert job.expired(now=110.0)
        eternal = Job("job-2", _submission(), submitted_at=100.0)
        assert eternal.remaining_deadline(now=1e12) == float("inf")

    def test_event_cursor_and_terminal_close(self):
        job = Job("job-1", _submission(), submitted_at=0.0)
        job.publish({"event": "a"})
        job.publish({"event": "b"})
        events, cursor, finished = job.events_since(0, timeout=0.01)
        assert [e["event"] for e in events] == ["a", "b"]
        assert not finished
        job.set_state("done", event={"event": "done"})
        events, cursor, finished = job.events_since(cursor, timeout=0.01)
        assert [e["event"] for e in events] == ["done"]
        assert not finished  # delivered in this batch...
        events, cursor, finished = job.events_since(cursor, timeout=0.01)
        assert events == [] and finished  # ...stream ends on the next

    def test_event_buffer_is_bounded(self):
        from repro.service.queueing import MAX_EVENTS_PER_JOB

        job = Job("job-1", _submission(), submitted_at=0.0)
        for index in range(MAX_EVENTS_PER_JOB + 50):
            job.publish({"event": index})
        events, _, _ = job.events_since(0, timeout=0.01)
        assert len(events) == MAX_EVENTS_PER_JOB
        assert job.view()["events_dropped"] == 50
        # the retained window is the most recent events
        assert events[-1]["event"] == MAX_EVENTS_PER_JOB + 49

    def test_unknown_state_rejected(self):
        job = Job("job-1", _submission(), submitted_at=0.0)
        with pytest.raises(ValueError, match="unknown job state"):
            job.set_state("paused")


class TestJobRegistry:
    def test_create_assigns_sequential_ids_and_manifests(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        first = registry.create(_submission())
        second = registry.create(_submission())
        assert (first.id, second.id) == ("job-000001", "job-000002")
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["id"] == "job-000001"

    def test_get_unknown_raises_not_found(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        with pytest.raises(ServiceError, match="no job"):
            registry.get("job-999999")

    def test_recover_requeues_unfinished_jobs(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        done = registry.create(_submission())
        done.report = CampaignReport(results=[])
        done.set_state("done")
        registry.write_report(done)
        pending = registry.create(_submission())

        fresh = JobRegistry(str(tmp_path))
        recovered = fresh.recover()
        assert [job.id for job in recovered] == [pending.id]
        assert fresh.get(done.id).state == "done"
        assert fresh.get(pending.id).state == "queued"
        # id minting continues after the recovered sequence
        assert fresh.create(_submission()).id == "job-000003"

    def test_recover_skips_torn_manifest_tail(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        job = registry.create(_submission())
        with open(registry.manifest_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submit", "id": "job-0000')  # torn

        fresh = JobRegistry(str(tmp_path))
        recovered = fresh.recover()
        assert [j.id for j in recovered] == [job.id]

    def test_torn_manifest_tail_does_not_swallow_next_job(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        job = registry.create(_submission())
        with open(registry.manifest_path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "submit", "id": "job-0000')  # torn

        restarted = JobRegistry(str(tmp_path))
        restarted.recover()
        after = restarted.create(_submission())

        fresh = JobRegistry(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [job.id, after.id]
        lines = (tmp_path / "jobs.jsonl").read_text().splitlines()
        assert [json.loads(line)["id"] for line in lines] == [job.id, after.id]

    def test_torn_report_file_means_redo(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        job = registry.create(_submission())
        with open(registry.report_path(job.id), "w") as handle:
            handle.write('{"state": "done", "repo')  # torn mid-write

        fresh = JobRegistry(str(tmp_path))
        assert [j.id for j in fresh.recover()] == [job.id]

    def test_report_round_trip(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        job = registry.create(_submission())
        job.report = CampaignReport(results=[])
        job.cache_hits = 3
        registry.write_report(job, state="done")
        envelope = registry.load_report(job.id)
        assert envelope["format"] == "linesearch-service-report"
        assert envelope["state"] == "done"
        assert envelope["cache_hits"] == 3
        assert envelope["report"]["format"] == "linesearch-campaign-report"
        assert envelope["report"]["results"] == []

    def test_result_before_terminal_is_conflict(self, tmp_path):
        registry = JobRegistry(str(tmp_path))
        job = registry.create(_submission())
        with pytest.raises(ServiceError, match="no result yet"):
            registry.load_report(job.id)
