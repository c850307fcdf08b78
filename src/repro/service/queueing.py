"""Jobs, the durable job manifest, and the bounded admission queue.

A *job* is one accepted submission: a batch of scenario specs plus
execution options, tracked through ``queued → running → done`` (or
``failed`` / ``deadline_exceeded``; a drain parks it back at
``queued`` via ``interrupted``).  Three artifacts make jobs durable in
the service state directory:

``jobs.jsonl``
    The append-only manifest: one line per accepted submission.
    Restart replays it to rebuild the registry; a torn trailing line
    (SIGKILL mid-append) is skipped and truncated away.
``job-<id>.journal.jsonl``
    The job's campaign journal (the existing crash-safe
    :class:`~repro.robustness.journal.CampaignJournal`): every
    completed scenario, appended and fsynced.
``job-<id>.report.json``
    The final report envelope, written atomically (temp + rename) when
    the job reaches a terminal state.  Its existence *is* the terminal
    marker: on restart, any manifested job without a report file is
    requeued and resumed from its journal.

The :class:`AdmissionQueue` in front of the workers is strictly
bounded: ``offer`` either accepts immediately or reports the queue
full, so overload becomes an explicit ``overloaded`` rejection at the
door rather than unbounded memory growth.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.errors import InvalidParameterError
from repro.robustness.campaign import CampaignReport
from repro.robustness.journal import append_durably, truncate_durably
from repro.service.protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    ServiceError,
    Submission,
)

__all__ = ["AdmissionQueue", "Job", "JobRegistry"]

#: Progress events kept per job for late stream subscribers; older
#: events are dropped (counted) so a slow consumer cannot grow memory.
MAX_EVENTS_PER_JOB = 1000


class Job:
    """One accepted submission and everything observable about it."""

    def __init__(self, job_id: str, submission: Submission,
                 submitted_at: float):
        self.id = job_id
        self.submission = submission
        self.submitted_at = submitted_at
        #: Absolute wall-clock deadline (epoch seconds), or ``None``.
        self.deadline_at: Optional[float] = (
            None if submission.deadline is None
            else submitted_at + submission.deadline
        )
        self.state = "queued"
        self.completed = 0
        self.total = len(submission.specs)
        self.cache_hits = 0
        self.error: Optional[str] = None
        self.message: Optional[str] = None
        self.report: Optional[CampaignReport] = None
        self._events: deque = deque()
        self._events_dropped = 0
        self._events_base = 0  # index of the oldest retained event
        self._condition = threading.Condition()

    # -- deadlines -----------------------------------------------------

    def remaining_deadline(self, now: Optional[float] = None) -> float:
        """Seconds until the deadline; ``inf`` when none was set."""
        if self.deadline_at is None:
            return float("inf")
        return self.deadline_at - (time.time() if now is None else now)

    def expired(self, now: Optional[float] = None) -> bool:
        return self.remaining_deadline(now) <= 0

    # -- state + events ------------------------------------------------

    def set_state(self, state: str, error: Optional[str] = None,
                  message: Optional[str] = None,
                  event: Optional[Dict[str, Any]] = None) -> None:
        """Transition atomically, optionally publishing ``event`` in
        the same step — a subscriber woken by a terminal transition is
        then guaranteed to see the final event before the stream ends."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        with self._condition:
            self.state = state
            self.error = error
            self.message = message
            if event is not None:
                self._append_event(event)
            self._condition.notify_all()

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def publish(self, event: Dict[str, Any]) -> None:
        """Append a progress event and wake every stream subscriber."""
        with self._condition:
            self._append_event(event)
            self._condition.notify_all()

    def _append_event(self, event: Dict[str, Any]) -> None:
        self._events.append(event)
        while len(self._events) > MAX_EVENTS_PER_JOB:
            self._events.popleft()
            self._events_base += 1
            self._events_dropped += 1

    def events_since(self, cursor: int, timeout: float = 1.0):
        """``(events, next_cursor, finished)`` at-or-after ``cursor``.

        Blocks up to ``timeout`` for news.  ``finished`` is True once
        the job is terminal and every retained event was delivered —
        the stream's end condition.
        """
        with self._condition:
            if cursor >= self._events_base + len(self._events):
                if self.terminal:
                    return [], cursor, True
                self._condition.wait(timeout)
            start = max(cursor, self._events_base)
            fresh = list(self._events)[start - self._events_base:]
            next_cursor = self._events_base + len(self._events)
            finished = self.terminal and not fresh
            return fresh, next_cursor, finished

    # -- views ---------------------------------------------------------

    def view(self) -> Dict[str, Any]:
        """The poll-endpoint JSON for this job."""
        body: Dict[str, Any] = {
            "job_id": self.id,
            "state": self.state,
            "completed": self.completed,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "client": self.submission.client,
            "method": self.submission.method,
            "submitted_at": self.submitted_at,
            "deadline_at": self.deadline_at,
            "events_dropped": self._events_dropped,
        }
        if self.error is not None:
            body["error"] = self.error
        if self.message is not None:
            body["message"] = self.message
        return body


# ----------------------------------------------------------------------
# durable registry
# ----------------------------------------------------------------------

def _atomic_write(path: str, data: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


class JobRegistry:
    """Every job the server knows, backed by the state directory."""

    def __init__(self, state_dir: str):
        self.state_dir = state_dir
        os.makedirs(state_dir, exist_ok=True)
        self.manifest_path = os.path.join(state_dir, "jobs.jsonl")
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._next_sequence = 1
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.journal.jsonl")

    def report_path(self, job_id: str) -> str:
        return os.path.join(self.state_dir, f"{job_id}.report.json")

    # -- admission -----------------------------------------------------

    def create(self, submission: Submission) -> Job:
        """Mint a job, append it durably to the manifest, register it."""
        with self._lock:
            job_id = f"job-{self._next_sequence:06d}"
            self._next_sequence += 1
            job = Job(job_id, submission, submitted_at=time.time())
            line = json.dumps(
                {
                    "event": "submit",
                    "id": job_id,
                    "submitted_at": job.submitted_at,
                    "request": submission.to_dict(),
                },
                sort_keys=True,
            )
            append_durably(self.manifest_path, (line + "\n").encode("utf-8"))
            self._jobs[job_id] = job
            self._order.append(job_id)
            return job

    # -- lookup --------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError("not_found", f"no job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        with self._lock:
            return [self._jobs[i] for i in self._order]

    def state_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- terminal artifacts --------------------------------------------

    def write_report(self, job: Job, state: Optional[str] = None) -> None:
        """Persist a terminal job's report envelope atomically.

        ``state`` lets the caller write the envelope *before* flipping
        the job's visible state, so a poller that observes a terminal
        job can always fetch its result.

        Scenarios that needed more than one attempt are surfaced at the
        top level under ``attempt_errors`` (scenario description → the
        per-attempt error strings) so flakiness is visible without
        walking every nested result.
        """
        envelope: Dict[str, Any] = {
            "format": "linesearch-service-report",
            "version": 1,
            "job_id": job.id,
            "state": state if state is not None else job.state,
            "cache_hits": job.cache_hits,
        }
        if job.error is not None:
            envelope["error"] = job.error
            envelope["message"] = job.message
        if job.report is not None:
            envelope["report"] = job.report.to_dict()
            flaky = {
                result.spec.describe(): list(result.attempt_errors)
                for result in job.report.results
                if result.attempt_errors
            }
            if flaky:
                envelope["attempt_errors"] = flaky
        _atomic_write(
            self.report_path(job.id),
            json.dumps(envelope, indent=2, sort_keys=True) + "\n",
        )

    def load_report(self, job_id: str) -> Dict[str, Any]:
        path = self.report_path(job_id)
        if not os.path.exists(path):
            raise ServiceError(
                "conflict", f"job {job_id!r} has no result yet"
            )
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # -- recovery ------------------------------------------------------

    def recover(self) -> List[Job]:
        """Replay the manifest; returns the jobs needing (re)execution.

        Manifested jobs whose report file exists are terminal — their
        state is restored from the envelope.  Everything else (queued
        or killed mid-run) is rebuilt as ``queued`` for the workers to
        resume from its journal.  Unparsable manifest lines are
        skipped, and a torn tail (SIGKILL mid-append) is truncated away
        so the next :meth:`create` starts on a fresh line.
        """
        if not os.path.exists(self.manifest_path):
            return []
        with open(self.manifest_path, "rb") as handle:
            data = handle.read()
        complete = data.rfind(b"\n") + 1
        if complete != len(data):
            truncate_durably(self.manifest_path, complete)
        lines = data[:complete].decode("utf-8", "replace").splitlines()
        pending: List[Job] = []
        with self._lock:
            for line in lines:
                if not line.strip():
                    continue
                try:
                    entry = json.loads(line)
                    if entry.get("event") != "submit":
                        continue
                    job_id = str(entry["id"])
                    submission = Submission.from_dict(entry["request"])
                    submitted_at = float(entry["submitted_at"])
                except (json.JSONDecodeError, KeyError, TypeError,
                        ValueError):
                    continue  # torn or foreign line
                job = Job(job_id, submission, submitted_at=submitted_at)
                self._jobs[job_id] = job
                self._order.append(job_id)
                sequence = _sequence_of(job_id)
                if sequence is not None:
                    self._next_sequence = max(
                        self._next_sequence, sequence + 1
                    )
                report_path = self.report_path(job_id)
                if os.path.exists(report_path):
                    try:
                        with open(report_path, encoding="utf-8") as fh:
                            envelope = json.load(fh)
                        job.state = str(envelope.get("state", "done"))
                        job.error = envelope.get("error")
                        job.message = envelope.get("message")
                        job.cache_hits = int(envelope.get("cache_hits", 0))
                        job.completed = job.total
                    except (json.JSONDecodeError, OSError, ValueError):
                        pending.append(job)  # torn report: redo the job
                else:
                    pending.append(job)
        return pending


def _sequence_of(job_id: str) -> Optional[int]:
    try:
        return int(job_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return None


# ----------------------------------------------------------------------
# bounded admission
# ----------------------------------------------------------------------

class AdmissionQueue:
    """A strictly bounded FIFO between admission and the workers.

    ``offer`` never blocks and never grows the queue past ``capacity``
    — the caller turns a refusal into an ``overloaded`` response.

    Examples:
        >>> queue = AdmissionQueue(capacity=1)
        >>> queue.offer("a"), queue.offer("b")
        (True, False)
        >>> queue.take(timeout=0.01)
        'a'
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidParameterError(
                f"queue capacity must be >= 1, got {capacity!r}"
            )
        self.capacity = capacity
        self._items: deque = deque()
        self._condition = threading.Condition()
        self._closed = False

    def offer(self, item: Any) -> bool:
        """Accept ``item`` if there is room; ``False`` otherwise."""
        with self._condition:
            if self._closed or len(self._items) >= self.capacity:
                return False
            self._items.append(item)
            self._condition.notify()
            return True

    def take(self, timeout: Optional[float] = None) -> Optional[Any]:
        """Pop the oldest item, waiting up to ``timeout``; ``None`` on
        timeout or once the queue is closed and drained."""
        with self._condition:
            if not self._items and not self._closed:
                self._condition.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def depth(self) -> int:
        with self._condition:
            return len(self._items)

    def close(self) -> None:
        """Stop accepting; wake every waiting worker."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    @property
    def closed(self) -> bool:
        with self._condition:
            return self._closed
