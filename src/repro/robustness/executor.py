"""Resilient campaign execution: worker pools, watchdogs, retries, resume.

:func:`~repro.robustness.campaign.run_campaign` historically ran every
scenario sequentially in-process with a hard-coded retry-once for
stochastic scenarios.  That substrate cannot survive the workloads the
stochastic and Byzantine fault models demand: one hung scenario stalls
the whole sweep, one driver crash throws away hours of completed
results.  :class:`CampaignExecutor` replaces it with:

* **Parallel workers** — scenarios are dispatched to a pool of worker
  processes (``jobs=N``).  Spec-built scenarios are pickled by value;
  scenarios whose factories cannot be pickled (ad-hoc closures) fall
  back to in-process execution and are documented as such.
* **Watchdog timeouts** — each dispatch carries a wall-clock deadline.
  An overdue worker is killed and the scenario is recorded as a
  structured :class:`~repro.errors.ScenarioTimeoutError` failure; the
  rest of the sweep continues on a replacement worker.
* **Crash recovery** — a worker that dies mid-scenario has its
  in-flight scenario requeued exactly once (the dead runner excluded);
  a second death records a :class:`~repro.errors.WorkerCrashError`.
* **Retry policy** — :class:`RetryPolicy` generalizes retry-once:
  configurable attempt budget and exponential backoff with
  deterministic seeded jitter, so two runs of the same campaign back
  off identically.
* **Crash-safe journal** — with ``journal_path`` every outcome is
  persisted through :class:`~repro.robustness.journal.CampaignJournal`;
  ``resume=True`` skips journaled scenarios and reproduces the exact
  report of an uninterrupted run.
* **Telemetry** — when :mod:`repro.observability` collection is
  enabled, every scenario traces a span (worker attempts flush theirs
  back through the result pipes and are re-parented under it) and the
  executor counts completions, failures, retries, watchdog kills, and
  worker crashes; disabled, the instrumentation costs one ``is None``
  test per call site.

Results are assembled in scenario order regardless of completion
order, so parallel and sequential runs of the same seeded grid produce
identical reports.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import CampaignInterrupted, InvalidParameterError
from repro.observability import instrument as obs
from repro.robustness.campaign import (
    CampaignReport,
    Scenario,
    ScenarioResult,
    error_class_of,
)
from repro.robustness.journal import CampaignJournal

__all__ = [
    "CampaignExecutor",
    "RetryPolicy",
]

#: Seconds between watchdog sweeps of the worker pool.
_POLL_INTERVAL = 0.05


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """When and how failed scenario attempts are retried.

    The default — two total attempts for stochastic scenarios, none
    for deterministic ones, zero backoff — reproduces the historical
    retry-once behavior of ``run_campaign`` exactly.

    Backoff for attempt ``k`` (1-based, the attempt that just failed)
    is ``backoff_base * backoff_factor ** (k - 1)``, scaled by a
    deterministic jitter of up to ``±jitter`` (relative) drawn from the
    scenario's seed, so identical campaigns back off identically.

    Examples:
        >>> RetryPolicy().max_attempts
        2
        >>> RetryPolicy.none().max_attempts
        1
        >>> policy = RetryPolicy(backoff_base=1.0, backoff_factor=2.0)
        >>> [policy.delay(k, seed=7) for k in (1, 2, 3)]
        [1.0, 2.0, 4.0]
        >>> jittered = RetryPolicy(backoff_base=1.0, jitter=0.5)
        >>> jittered.delay(1, seed=7) == jittered.delay(1, seed=7)
        True
    """

    max_attempts: int = 2
    retry_deterministic: bool = False
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise InvalidParameterError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 0:
            raise InvalidParameterError("backoff must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise InvalidParameterError("jitter must be in [0, 1]")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """Never retry: every scenario gets exactly one attempt."""
        return cls(max_attempts=1)

    def should_retry(self, scenario: Scenario, attempts: int) -> bool:
        """Whether a scenario that just failed its ``attempts``-th
        attempt deserves another."""
        if attempts >= self.max_attempts:
            return False
        return scenario.stochastic or self.retry_deterministic

    def delay(self, attempts: int, seed: Optional[int] = None) -> float:
        """Backoff before the next attempt, deterministic in ``seed``."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_factor ** (attempts - 1)
        if self.jitter:
            rng = random.Random(
                (0 if seed is None else seed) ^ (attempts * 0x9E3779B1)
            )
            base *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return base


# ----------------------------------------------------------------------
# single attempts (shared by the inline path and the workers)
# ----------------------------------------------------------------------

def _attempt_payload(
    scenario: Scenario, check_invariants: bool, telemetry: bool = False
) -> Dict[str, Any]:
    """Run one attempt and flatten the outcome into a picklable dict.

    With ``telemetry=True`` (the worker-process path) the attempt runs
    under a *fresh* in-memory :class:`~repro.observability.instrument.
    Telemetry`, whose finished spans and metric snapshot are flushed
    into the payload under ``"telemetry"`` — this is how traces cross
    the worker's result pipe back to the parent.  Inline attempts run
    under whatever telemetry is ambient and carry nothing extra.
    """
    import math

    from repro.variants import variant_for

    previous = active = None
    if telemetry:
        active = obs.Telemetry()
        previous = obs.configure(active)
    try:
        with obs.span(
            "campaign.attempt",
            fault=scenario.spec.fault,
            seed=scenario.spec.seed,
        ) as attempt_span:
            try:
                outcome = variant_for(scenario.spec.variant).run(
                    scenario, check_invariants
                )
            except Exception as exc:
                attempt_span.set(error=error_class_of(exc))
                payload: Dict[str, Any] = {
                    "ok": False,
                    "error": error_class_of(exc),
                    "error_message": str(exc),
                }
            else:
                detected = math.isfinite(outcome.detection_time)
                payload = {
                    "ok": True,
                    "detection_time": outcome.detection_time,
                    "competitive_ratio": (
                        outcome.competitive_ratio if detected else None
                    ),
                    "detecting_robot": outcome.detecting_robot,
                    "faulty_robots": tuple(sorted(outcome.faulty_robots)),
                }
    finally:
        if telemetry:
            obs.configure(previous)
    if active is not None:
        payload["telemetry"] = {
            "spans": active.tracer.drain(),
            "metrics": active.metrics.snapshot(),
        }
    return payload


def _result_from_payload(
    scenario: Scenario,
    payload: Dict[str, Any],
    attempts: int,
    attempt_errors: List[str],
) -> ScenarioResult:
    if payload["ok"]:
        return ScenarioResult(
            spec=scenario.spec,
            ok=True,
            attempts=attempts,
            detection_time=payload["detection_time"],
            competitive_ratio=payload["competitive_ratio"],
            detecting_robot=payload["detecting_robot"],
            faulty_robots=tuple(payload["faulty_robots"]),
            attempt_errors=tuple(attempt_errors),
        )
    return ScenarioResult(
        spec=scenario.spec,
        ok=False,
        attempts=attempts,
        error=payload["error"],
        error_message=payload["error_message"],
        attempt_errors=tuple(attempt_errors),
    )


def _worker_main(
    conn, check_invariants: bool, telemetry_enabled: bool = False
) -> None:
    """Worker process loop: receive pickled scenarios, send payloads."""
    # On fork platforms the child inherits the parent's live telemetry;
    # drop it so worker attempts trace into their own fresh sinks.
    obs.configure(None)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        index, blob = message
        scenario = pickle.loads(blob)
        try:
            conn.send(
                (
                    index,
                    _attempt_payload(
                        scenario, check_invariants,
                        telemetry=telemetry_enabled,
                    ),
                )
            )
        except (BrokenPipeError, OSError):  # parent went away
            break


# ----------------------------------------------------------------------
# pool bookkeeping
# ----------------------------------------------------------------------

@dataclass
class _Task:
    """One scenario's journey through the pool: attempts, crashes, backoff."""

    index: int
    scenario: Scenario
    blob: bytes
    attempts: int = 0
    crashes: int = 0
    not_before: float = 0.0
    elapsed: float = 0.0
    errors: List[str] = field(default_factory=list)
    excluded_workers: Set[int] = field(default_factory=set)
    span_blobs: List[Dict[str, Any]] = field(default_factory=list)


class _Worker:
    """Handle on one worker process and its private pipe."""

    __slots__ = ("ident", "process", "conn", "task", "started")

    def __init__(self, ident: int, process, conn):
        self.ident = ident
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.started = 0.0


def _pool_context():
    """Fork where the platform has it (cheap, inherits imports), else
    the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------

class CampaignExecutor:
    """Resilient campaign runner: the execution substrate behind
    :func:`~repro.robustness.campaign.run_campaign`.

    Args:
        jobs: worker processes.  ``1`` with no ``timeout`` runs
            in-process (the historical behavior).
        timeout: per-scenario wall-clock budget in seconds.  Setting a
            timeout forces the worker pool even for ``jobs=1`` so the
            watchdog can actually kill an overdue scenario.
        retry_policy: attempt budget and backoff; defaults to the
            historical retry-once-for-stochastic policy.
        journal_path: when set, every outcome is persisted to this
            crash-safe JSONL journal as it completes.
        resume: skip scenarios already recorded in ``journal_path``.
            A missing journal file starts a fresh run (so ``resume``
            is safe to pass unconditionally in CI loops).
        checkpoint_every: fsync the journal every N records.
        handle_sigterm: install a SIGTERM handler for the duration of
            :meth:`execute` (main thread only) that stops the campaign
            cooperatively: no new scenarios are dispatched, in-flight
            pooled scenarios are requeued (left un-journaled for the
            next ``resume``), the journal is checkpointed with an
            ``fsync``, and :class:`~repro.errors.CampaignInterrupted`
            is raised carrying the partial report.  The previous
            handler is restored on exit either way.

    Examples:
        >>> from repro.robustness.campaign import chaos_scenarios
        >>> executor = CampaignExecutor()
        >>> report = executor.execute(chaos_scenarios([(3, 1)], [2.0], ["none"]))
        >>> (report.succeeded, report.failed)
        (1, 0)
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        journal_path: Optional[str] = None,
        resume: bool = False,
        checkpoint_every: int = 1,
        handle_sigterm: bool = True,
    ):
        if jobs < 1:
            raise InvalidParameterError("jobs must be >= 1")
        if timeout is not None and timeout <= 0:
            raise InvalidParameterError("timeout must be positive")
        if checkpoint_every < 1:
            raise InvalidParameterError("checkpoint_every must be >= 1")
        self.jobs = jobs
        self.timeout = timeout
        self.retry_policy = retry_policy or RetryPolicy()
        self.journal_path = journal_path
        self.resume = resume
        self.checkpoint_every = checkpoint_every
        self.handle_sigterm = handle_sigterm
        self._next_worker_ident = 0
        self._stop_requested = False
        self._stop_check: Optional[Callable[[], bool]] = None

    # -- public API ----------------------------------------------------

    def execute(
        self,
        scenarios: Iterable[Scenario],
        check_invariants: bool = True,
        stop_check: Optional[Callable[[], bool]] = None,
        on_result: Optional[Callable[[int, ScenarioResult], None]] = None,
    ) -> CampaignReport:
        """Run the campaign and return its report.

        Results appear in scenario order regardless of worker
        completion order, so parallel, sequential, and resumed runs of
        the same seeded grid produce identical reports.

        Args:
            stop_check: polled between scenarios (and on every pool
                sweep); returning ``True`` stops the campaign the same
                way a SIGTERM does — journal checkpoint, then
                :class:`~repro.errors.CampaignInterrupted` with the
                partial report.  This is how the serving layer
                propagates deadlines and drain requests.
            on_result: called as ``on_result(index, result)`` the
                moment each scenario's outcome is recorded (journal
                included), in completion order — the hook behind
                progress streaming and result caches.
        """
        scenarios = list(scenarios)
        telemetry = obs.current()
        self._stop_requested = False
        self._stop_check = stop_check
        restore_handler = self._install_sigterm()
        try:
            with obs.span(
                "campaign.execute", scenarios=len(scenarios), jobs=self.jobs
            ):
                journal, completed = self._open_journal(scenarios)
                results: Dict[int, ScenarioResult] = dict(completed)

                def record(index: int, result: ScenarioResult) -> None:
                    results[index] = result
                    if telemetry is not None:
                        obs.count("scenarios_completed_total")
                        if not result.ok:
                            obs.count(
                                "scenarios_failed_total",
                                error=result.error or "?",
                            )
                        if result.attempts > 1:
                            obs.count(
                                "scenario_retries_total", result.attempts - 1
                            )
                    if journal is not None:
                        journal.record(index, result)
                    if on_result is not None:
                        on_result(index, result)

                remaining = [
                    (i, s)
                    for i, s in enumerate(scenarios)
                    if i not in completed
                ]
                if telemetry is not None:
                    obs.gauge_set("campaign_scenarios_total", len(scenarios))
                    obs.gauge_set(
                        "campaign_scenarios_resumed", len(completed)
                    )
                if self.jobs == 1 and self.timeout is None:
                    self._run_inline(remaining, check_invariants, record)
                else:
                    pooled, inline = [], []
                    for index, scenario in remaining:
                        try:
                            blob = pickle.dumps(scenario)
                        except Exception:
                            inline.append((index, scenario))
                        else:
                            pooled.append(_Task(index, scenario, blob))
                    self._run_pool(pooled, check_invariants, record)
                    # ad-hoc scenarios (unpicklable factories) cannot cross a
                    # process boundary; they run here without a watchdog
                    self._run_inline(inline, check_invariants, record)
                if self._stopping():
                    self._checkpoint_and_interrupt(
                        journal, results, len(scenarios)
                    )
        finally:
            restore_handler()
            self._stop_check = None

        return CampaignReport(
            results=[results[i] for i in sorted(results)]
        )

    # -- cooperative stop ----------------------------------------------

    def _install_sigterm(self) -> Callable[[], None]:
        """Install the graceful-stop SIGTERM handler when possible.

        Signal handlers can only live in the main thread; elsewhere
        (the serving layer's worker threads) the executor relies on
        ``stop_check`` instead.  Returns a restore callback.
        """
        if (
            not self.handle_sigterm
            or threading.current_thread() is not threading.main_thread()
        ):
            return lambda: None

        def _on_sigterm(signum, frame):
            self._stop_requested = True

        try:
            previous = signal.signal(signal.SIGTERM, _on_sigterm)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            return lambda: None
        return lambda: signal.signal(signal.SIGTERM, previous)

    def _stopping(self) -> bool:
        """Whether a SIGTERM or the caller's ``stop_check`` asked us to
        stop dispatching new work."""
        if self._stop_requested:
            return True
        if self._stop_check is not None and self._stop_check():
            self._stop_requested = True
            return True
        return False

    @staticmethod
    def _checkpoint_and_interrupt(
        journal: Optional[CampaignJournal],
        results: Dict[int, ScenarioResult],
        total: int,
    ) -> None:
        """Durably checkpoint what completed, then raise
        :class:`~repro.errors.CampaignInterrupted`."""
        if journal is not None:
            journal.flush(fsync=True)
        if obs.is_enabled():
            obs.count("campaign_interrupts_total")
        remaining = total - len(results)
        report = CampaignReport(
            results=[results[i] for i in sorted(results)]
        )
        raise CampaignInterrupted(
            f"campaign stopped with {remaining} of {total} scenario(s) "
            "not yet run"
            + (
                "; the journal is checkpointed — rerun with resume to "
                "continue"
                if journal is not None
                else ""
            ),
            report=report,
            remaining=remaining,
        )

    # -- journal -------------------------------------------------------

    def _open_journal(
        self, scenarios: List[Scenario]
    ) -> Tuple[Optional[CampaignJournal], Dict[int, ScenarioResult]]:
        if not self.journal_path:
            return None, {}
        if self.resume and os.path.exists(self.journal_path):
            journal = CampaignJournal.load(
                self.journal_path, checkpoint_every=self.checkpoint_every
            )
            return journal, journal.match(scenarios)
        journal = CampaignJournal(
            self.journal_path, checkpoint_every=self.checkpoint_every
        )
        journal.flush(fsync=True)  # create (or truncate a stale journal)
        return journal, {}

    # -- in-process execution ------------------------------------------

    def _run_inline(self, tasks, check_invariants, record) -> None:
        for index, scenario in tasks:
            if self._stopping():
                return
            attempts = 0
            errors: List[str] = []
            started = time.monotonic() if obs.is_enabled() else 0.0
            with obs.span(
                "campaign.scenario",
                index=index,
                fault=scenario.spec.fault,
                n=scenario.spec.n,
                f=scenario.spec.f,
                target=scenario.spec.target,
            ) as scenario_span:
                while True:
                    attempts += 1
                    payload = _attempt_payload(scenario, check_invariants)
                    if payload["ok"]:
                        result = _result_from_payload(
                            scenario, payload, attempts, errors
                        )
                        scenario_span.set(ok=True, attempts=attempts)
                        if result.competitive_ratio is not None:
                            scenario_span.set(ratio=result.competitive_ratio)
                        record(index, result)
                        break
                    errors.append(
                        f"{payload['error']}: {payload['error_message']}"
                    )
                    if self.retry_policy.should_retry(scenario, attempts):
                        if self._stopping():
                            # requeue: leave the scenario un-journaled
                            # so a resumed run retries it from scratch
                            return
                        pause = self.retry_policy.delay(
                            attempts, scenario.spec.seed
                        )
                        if pause > 0:
                            time.sleep(pause)
                        continue
                    scenario_span.set(ok=False, attempts=attempts)
                    record(
                        index,
                        _result_from_payload(
                            scenario, payload, attempts, errors
                        ),
                    )
                    break
            if obs.is_enabled():
                obs.observe(
                    "scenario_wall_seconds", time.monotonic() - started
                )

    # -- pooled execution ----------------------------------------------

    def _run_pool(self, tasks, check_invariants, record) -> None:
        if not tasks:
            return
        context = _pool_context()
        pending: List[_Task] = list(tasks)
        workers: List[_Worker] = []
        try:
            while pending or any(w.task is not None for w in workers):
                if self._stopping():
                    # Drain: stop dispatching; in-flight scenarios are
                    # abandoned un-journaled (the pool teardown kills
                    # their workers) so a resumed run requeues them.
                    return
                now = time.monotonic()
                self._grow_pool(workers, pending, context, check_invariants)
                for worker in list(workers):
                    if worker.task is None:
                        task = self._pop_ready(pending, now, worker.ident)
                        if task is not None:
                            self._dispatch(worker, task, pending, workers)
                busy = [w for w in workers if w.task is not None]
                if not busy:
                    if pending:  # everything is backing off
                        wake = min(t.not_before for t in pending)
                        time.sleep(
                            min(max(wake - now, 0.0), _POLL_INTERVAL)
                            or _POLL_INTERVAL / 10
                        )
                    continue
                ready = multiprocessing.connection.wait(
                    [w.conn for w in busy], timeout=_POLL_INTERVAL
                )
                for worker in busy:
                    if worker.conn in ready:
                        self._collect(worker, pending, record)
                now = time.monotonic()
                for worker in busy:
                    if worker.task is None:
                        continue
                    if (
                        self.timeout is not None
                        and now - worker.started > self.timeout
                    ):
                        self._handle_timeout(worker, workers, pending, record)
                    elif not worker.process.is_alive():
                        self._handle_crash(worker, workers, pending, record)
        finally:
            self._shutdown(workers)

    def _grow_pool(self, workers, pending, context, check_invariants) -> None:
        busy = sum(1 for w in workers if w.task is not None)
        target = min(self.jobs, busy + len(pending))
        while len(workers) < target:
            workers.append(self._spawn_worker(context, check_invariants))

    def _spawn_worker(self, context, check_invariants: bool) -> _Worker:
        parent_conn, child_conn = context.Pipe()
        ident = self._next_worker_ident
        self._next_worker_ident += 1
        process = context.Process(
            target=_worker_main,
            args=(child_conn, check_invariants, obs.is_enabled()),
            daemon=True,
            name=f"campaign-worker-{ident}",
        )
        process.start()
        child_conn.close()
        return _Worker(ident, process, parent_conn)

    @staticmethod
    def _pop_ready(
        pending: List[_Task], now: float, worker_ident: int
    ) -> Optional[_Task]:
        for position, task in enumerate(pending):
            if task.not_before <= now and worker_ident not in task.excluded_workers:
                return pending.pop(position)
        return None

    def _dispatch(
        self,
        worker: _Worker,
        task: _Task,
        pending: List[_Task],
        workers: List[_Worker],
    ) -> None:
        task.attempts += 1
        worker.task = task
        worker.started = time.monotonic()
        try:
            worker.conn.send((task.index, task.blob))
        except (BrokenPipeError, OSError):
            # the worker died before it ever saw the task: retire it
            # and requeue the task unpenalized
            task.attempts -= 1
            pending.append(task)
            self._retire(worker, workers)

    def _collect(self, worker: _Worker, pending, record) -> None:
        task = worker.task
        try:
            _, payload = worker.conn.recv()
        except (EOFError, OSError, pickle.UnpicklingError):
            return  # a crash — the liveness sweep will handle it
        worker.task = None
        self._ingest_attempt_telemetry(task, worker, payload)
        if payload["ok"]:
            self._record_pooled(
                task,
                record,
                _result_from_payload(
                    task.scenario, payload, task.attempts, task.errors
                ),
            )
            return
        task.errors.append(f"{payload['error']}: {payload['error_message']}")
        if self.retry_policy.should_retry(task.scenario, task.attempts):
            task.not_before = time.monotonic() + self.retry_policy.delay(
                task.attempts, task.scenario.spec.seed
            )
            pending.append(task)
        else:
            self._record_pooled(
                task,
                record,
                _result_from_payload(
                    task.scenario, payload, task.attempts, task.errors
                ),
            )

    @staticmethod
    def _ingest_attempt_telemetry(
        task: _Task, worker: _Worker, payload: Dict[str, Any]
    ) -> None:
        """Fold one worker attempt's telemetry into the parent's state.

        Metric snapshots merge immediately (they are additive and must
        survive even if the scenario is later requeued); spans
        accumulate on the task and are adopted under its
        ``campaign.scenario`` span when the final result is recorded.
        """
        telemetry = obs.current()
        if telemetry is None:
            return
        task.elapsed += time.monotonic() - worker.started
        blob = payload.get("telemetry")
        if blob:
            telemetry.metrics.merge(blob.get("metrics", {}))
            task.span_blobs.extend(blob.get("spans", ()))

    @staticmethod
    def _record_pooled(task: _Task, record, result: ScenarioResult) -> None:
        """Record a pooled scenario's result, materializing its span.

        The scenario's work happened in worker processes; the parent
        records a ``campaign.scenario`` span covering the observed wall
        clock and adopts the workers' attempt spans beneath it, so the
        merged trace nests exactly like an inline run's.
        """
        telemetry = obs.current()
        if telemetry is not None:
            attributes = dict(
                index=task.index,
                fault=task.scenario.spec.fault,
                n=task.scenario.spec.n,
                f=task.scenario.spec.f,
                target=task.scenario.spec.target,
                ok=result.ok,
                attempts=result.attempts,
            )
            if result.competitive_ratio is not None:
                attributes["ratio"] = result.competitive_ratio
            span_id = telemetry.tracer.record_span(
                "campaign.scenario",
                duration=task.elapsed,
                **attributes,
            )
            if task.span_blobs:
                telemetry.tracer.adopt(task.span_blobs, parent_id=span_id)
                task.span_blobs = []
            obs.observe("scenario_wall_seconds", task.elapsed)
        record(task.index, result)

    def _handle_timeout(self, worker, workers, pending, record) -> None:
        if worker.conn.poll():  # the result raced the watchdog — take it
            self._collect(worker, pending, record)
            if worker.task is None:
                return
        task = worker.task
        message = (
            f"scenario exceeded its wall-clock budget of {self.timeout:g}s"
        )
        task.errors.append(f"ScenarioTimeoutError: {message}")
        if obs.is_enabled():
            task.elapsed += time.monotonic() - worker.started
            obs.count("watchdog_timeouts_total")
        self._record_pooled(
            task,
            record,
            ScenarioResult(
                spec=task.scenario.spec,
                ok=False,
                attempts=task.attempts,
                error="ScenarioTimeoutError",
                error_message=message,
                attempt_errors=tuple(task.errors),
            ),
        )
        self._retire(worker, workers)

    def _handle_crash(self, worker, workers, pending, record) -> None:
        task = worker.task
        exitcode = worker.process.exitcode
        if obs.is_enabled():
            task.elapsed += time.monotonic() - worker.started
            obs.count("worker_crashes_total")
        self._retire(worker, workers)
        task.errors.append(
            f"WorkerCrashError: worker died (exit code {exitcode})"
        )
        if task.crashes == 0:
            task.crashes = 1
            task.excluded_workers.add(worker.ident)
            task.not_before = 0.0
            pending.append(task)
            return
        self._record_pooled(
            task,
            record,
            ScenarioResult(
                spec=task.scenario.spec,
                ok=False,
                attempts=task.attempts,
                error="WorkerCrashError",
                error_message=(
                    "worker process died while running the scenario "
                    f"(exit code {exitcode}); already requeued once"
                ),
                attempt_errors=tuple(task.errors),
            ),
        )

    @staticmethod
    def _retire(worker: _Worker, workers: List[_Worker]) -> None:
        worker.task = None
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        workers.remove(worker)

    @staticmethod
    def _shutdown(workers: List[_Worker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:  # pragma: no cover
                pass
        workers.clear()
