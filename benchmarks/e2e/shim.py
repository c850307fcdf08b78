"""Benchmark-owned tracing shim: spans around the program's layers.

The program is not edited.  :class:`Shim` wraps public methods at class
level, and module functions in the namespaces that call them, so every
call into a layer records a span in a standalone
:class:`repro.observability.Tracer` (never the program's own telemetry,
which stays as shipped).

Two kinds of wrapper keep the trace small enough to hold in memory for a
whole run:

* a *span* wrapper opens a real span per call (layers that contain other
  layers: ``executor.execute``, ``service.job``, ...);
* a *leaf* wrapper times the call and folds it into one aggregated child
  record per enclosing span and layer, carrying a ``calls`` attribute
  (layers called thousands of times per unit: ``engine.run``,
  ``engine.visit``, ...).  A leaf called inside another leaf is not
  recorded again, so self times never count a call twice.

Self times come from :func:`repro.perf.profile.profile_spans`, so the
written ``*.trace.jsonl`` files also open with ``linesearch perf``.
"""

from __future__ import annotations

import functools
import os
import statistics
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional


class Shim:
    """Installs and removes the layer wrappers; owns the tracer."""

    def __init__(self):
        from repro.observability import Tracer

        self.tracer = Tracer()
        self._local = threading.local()
        # span id -> layer name -> [first start, total seconds, calls]
        self._pending: Dict[str, Dict[str, List[float]]] = {}
        self._undo: List[Callable[[], None]] = []
        self._queued_at: Dict[str, float] = {}

    # -- wrappers ------------------------------------------------------

    def _flush_pending(self, span_id: str) -> None:
        for name, (start, total, calls) in self._pending.pop(
            span_id, {}
        ).items():
            self.tracer.record_span(
                name, duration=total, start=start, parent_id=span_id,
                calls=calls,
            )

    def _add(self, name: str, started: float, elapsed: float,
             calls: float) -> None:
        """Fold one call (or count) into the enclosing span's aggregate
        record for ``name``; a root record when no span is open."""
        parent = self.tracer.current_span_id()
        if parent is None:
            self.tracer.record_span(
                name, duration=elapsed, start=started, calls=calls
            )
            return
        entry = self._pending.setdefault(parent, {}).setdefault(
            name, [started, 0.0, 0]
        )
        entry[1] += elapsed
        entry[2] += calls

    def span(self, name: str, func: Callable, attrs=None) -> Callable:
        """Wrap ``func`` in a real span; ``attrs(args, result)`` may
        name attributes found in the arguments or the result."""
        tracer = self.tracer

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            active = tracer.span(name)
            try:
                with active:
                    result = func(*args, **kwargs)
                    if attrs is not None:
                        active.set(**attrs(args, result))
            finally:
                self._flush_pending(active.span_id)
            return result

        return wrapper

    def leaf(self, name: str, func: Callable) -> Callable:
        """Wrap ``func`` as an aggregated leaf layer."""
        local = self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_leaf", False):
                return func(*args, **kwargs)
            local.in_leaf = True
            started = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                local.in_leaf = False
                self._add(name, started, time.perf_counter() - started, 1)

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        """Count ``amount`` of ``key`` as a zero-length ``count.<key>``
        record, so counts filter by time exactly like spans."""
        self._add("count." + key, time.perf_counter(), 0.0, amount)

    def _patch(self, owner: Any, attribute: str, wrapped: Any) -> None:
        original = owner.__dict__[attribute]
        setattr(owner, attribute, wrapped)
        self._undo.append(lambda: setattr(owner, attribute, original))

    def _wrap(self, kind: str, name: str, func: Callable, attrs=None):
        if kind == "span":
            return self.span(name, func, attrs)
        return self.leaf(name, func)

    def _method(self, cls, attribute: str, kind: str, name: str,
                attrs=None) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrap(kind, name, original.__func__, attrs)
            )
        else:
            wrapped = self._wrap(kind, name, original, attrs)
        self._patch(cls, attribute, wrapped)

    def _function(self, modules: Iterable[Any], attribute: str, kind: str,
                  name: str) -> None:
        for module in modules:
            self._patch(
                module, attribute,
                self._wrap(kind, name, module.__dict__[attribute]),
            )

    # -- installation --------------------------------------------------

    def install(self, service: bool = False) -> "Shim":
        """Wrap every library layer, plus the serving layers when
        ``service`` is set (the server process)."""
        import repro.batch.evaluate as batch_evaluate
        import repro.robustness as robustness
        import repro.robustness.campaign as campaign
        import repro.simulation as simulation
        import repro.simulation.sweep as sweep
        from repro.async_sched.engine import EventEngine
        from repro.batch.evaluate import BatchEvaluator
        from repro.byzantine.simulate import ByzantineSearchSimulation
        from repro.robots.fleet import Fleet
        from repro.robustness.executor import CampaignExecutor
        from repro.robustness.journal import CampaignJournal
        from repro.simulation.adversary import CompetitiveRatioEstimator
        from repro.simulation.engine import SearchSimulation
        from repro.variants.evacuation import EvacuationVariant
        from repro.variants.halfline import HalfLineVariant

        self._function([sweep, simulation], "target_sweep", "span",
                       "sweep.target_sweep")
        self._function([campaign, robustness], "chaos_scenarios", "span",
                       "campaign.chaos_scenarios")
        self._function([campaign], "build_scenario", "leaf", "campaign.build")
        self._function([batch_evaluate], "compile_fleet", "leaf",
                       "batch.compile")
        self._method(Fleet, "from_algorithm", "leaf", "fleet.build")
        self._method(Fleet, "worst_case_detection_time", "leaf",
                     "engine.visit")
        self._method(CompetitiveRatioEstimator, "estimate", "span",
                     "estimator.estimate")
        self._method(CampaignExecutor, "execute", "span", "executor.execute",
                     attrs=lambda args, result: {"scenarios": result.total})
        self._method(SearchSimulation, "run", "leaf", "engine.run")
        self._method(EventEngine, "run", "leaf", "async.run")
        self._method(ByzantineSearchSimulation, "run", "leaf", "byzantine.run")
        self._method(HalfLineVariant, "run", "span", "variants.run")
        self._method(EvacuationVariant, "run", "span", "variants.run")
        self._method(CampaignJournal, "record", "leaf", "journal.record")
        self._journal_flush(CampaignJournal)
        for method in ("search_times", "detection_times"):
            self._batch_points(BatchEvaluator, method)
        if service:
            self._install_service()
        return self

    def _journal_flush(self, cls) -> None:
        original = cls.__dict__["flush"]
        shim = self

        @functools.wraps(original)
        def flush(journal, fsync: bool = False):
            original(journal, fsync=fsync)
            shim.count("journal.fsync_flushes", 1 if fsync else 0)
            shim.count("journal.bytes", os.path.getsize(journal.path))

        self._patch(cls, "flush", flush)

    def _batch_points(self, cls, attribute: str) -> None:
        original = cls.__dict__[attribute]
        timed = self.leaf("batch.eval", original)
        shim = self

        @functools.wraps(original)
        def evaluate(evaluator, targets, *args, **kwargs):
            shim.count("batch.points", len(targets))
            return timed(evaluator, targets, *args, **kwargs)

        self._patch(cls, attribute, evaluate)

    def _install_service(self) -> None:
        import repro.service.server as server
        from repro.service.cache import ResultCache
        from repro.service.queueing import AdmissionQueue, JobRegistry
        from repro.service.server import LineSearchService

        for verb in ("do_GET", "do_POST"):
            self._method(
                server._Handler, verb, "span", "service.http",
                attrs=lambda args, result, verb=verb: {
                    "method": verb[3:], "path": args[0].path,
                },
            )
        self._method(
            LineSearchService, "submit", "span", "service.submit",
            attrs=lambda args, result: {
                "job": result.get("job_id"), "cached": result.get("cached"),
            },
        )
        self._method(
            LineSearchService, "_run_job", "span", "service.job",
            attrs=lambda args, result: {"job": args[1].id},
        )
        self._function([server], "parse_submission", "leaf", "service.parse")
        self._function([server], "build_scenario", "leaf", "campaign.build")
        self._method(JobRegistry, "create", "leaf", "service.manifest")
        self._method(JobRegistry, "write_report", "leaf",
                     "service.report_write")
        self._queue_wait(AdmissionQueue)
        self._cache_hits(ResultCache)

    def _queue_wait(self, cls) -> None:
        offer, take = cls.__dict__["offer"], cls.__dict__["take"]
        shim = self

        @functools.wraps(offer)
        def wrapped_offer(queue, item):
            # stamped before the offer: a worker may take the job at once
            shim._queued_at[item.id] = time.perf_counter()
            accepted = offer(queue, item)
            if not accepted:
                del shim._queued_at[item.id]
            return accepted

        @functools.wraps(take)
        def wrapped_take(queue, timeout=None):
            item = take(queue, timeout)
            if item is not None:
                queued = shim._queued_at.pop(item.id, None)
                if queued is not None:
                    shim.tracer.record_span(
                        "service.queue_wait",
                        duration=time.perf_counter() - queued,
                        start=queued, parent_id=None, job=item.id,
                    )
            return item

        self._patch(cls, "offer", wrapped_offer)
        self._patch(cls, "take", wrapped_take)

    def _cache_hits(self, cls) -> None:
        get = cls.__dict__["get"]
        shim = self

        @functools.wraps(get)
        def wrapped_get(cache, key):
            result = get(cache, key)
            shim.count("cache.gets")
            shim.count("cache.hits", 0 if result is None else 1)
            return result

        self._patch(cls, "get", wrapped_get)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- output --------------------------------------------------------

    def write(self, path: str, metadata: Optional[Dict[str, Any]] = None
              ) -> int:
        """Write every record as ``trace.jsonl`` (see
        :func:`repro.observability.export.write_trace_jsonl`)."""
        from repro.observability import Telemetry
        from repro.observability.export import write_trace_jsonl

        return write_trace_jsonl(
            path, Telemetry(tracer=self.tracer), extra_metadata=metadata
        )


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def _calls(records, name: str) -> float:
    """Calls folded into the records named ``name`` (or the amount
    counted, for ``count.*`` records)."""
    return sum(r.attributes.get("calls", 1) for r in records if r.name == name)


def _total(profile, name: str) -> float:
    stats = profile.get(name)
    return stats.total if stats is not None else 0.0


def _per(value: float, base: float) -> float:
    return value / base if base else 0.0


def percentile(samples: List[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolated; 0.0 when empty."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return float(samples[0])
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(q) - 1]


def layer_metrics(records, scenarios: int, fleets: int,
                  wall_s: float) -> Dict[str, float]:
    """Per-layer numbers from the records of one traced window.

    ``scenarios`` is the number of campaign scenarios the traced window
    executed, ``fleets`` the number of (distinct fleet, unit) pairs, and
    ``wall_s`` the window's wall time that root spans are held against.
    """
    from repro.observability.tracing import roots
    from repro.perf.profile import profile_spans

    records = list(records)
    profile = profile_spans(records).by_name()
    visit_calls = _calls(records, "engine.visit")
    engine_calls = _calls(records, "engine.run")
    batch_points = _calls(records, "count.batch.points")
    queue_waits = [
        r.duration * 1e3 for r in records if r.name == "service.queue_wait"
    ]
    executor = profile.get("executor.execute")

    def mean_ms(name: str) -> float:
        return 1e3 * _per(_total(profile, name), _calls(records, name))

    def mean_us(name: str) -> float:
        return 1e6 * _per(_total(profile, name), _calls(records, name))

    return {
        "service.submit_ms": mean_ms("service.submit"),
        "service.parse_ms": mean_ms("service.parse"),
        "service.manifest_ms": mean_ms("service.manifest"),
        "service.queue_wait_p50_ms": percentile(queue_waits, 50),
        "service.queue_wait_p90_ms": percentile(queue_waits, 90),
        "service.cache_hit_ratio": _per(
            _calls(records, "count.cache.hits"),
            _calls(records, "count.cache.gets"),
        ),
        "service.report_write_ms": mean_ms("service.report_write"),
        # timed by the serve load generator, which overrides this
        "service.result_fetch_ms": 0.0,
        "executor.self_us_per_scenario": 1e6 * _per(
            executor.self_time if executor else 0.0, scenarios
        ),
        "campaign.build_us_per_scenario": 1e6 * _per(
            _total(profile, "campaign.build"), scenarios
        ),
        "fleet.build_us_per_scenario": 1e6 * _per(
            _total(profile, "fleet.build"), scenarios
        ),
        "journal.record_ms": mean_ms("journal.record"),
        "journal.bytes_per_scenario": _per(
            _calls(records, "count.journal.bytes"),
            _calls(records, "journal.record"),
        ),
        "journal.fsync_flushes_per_scenario": _per(
            _calls(records, "count.journal.fsync_flushes"),
            _calls(records, "journal.record"),
        ),
        "engine.run_us": mean_us("engine.run"),
        "engine.calls": _per(engine_calls, scenarios),
        "engine.visit_us_per_target": mean_us("engine.visit"),
        "estimator.estimate_ms": mean_ms("estimator.estimate"),
        "batch.route_share": _per(
            batch_points, batch_points + engine_calls + visit_calls
        ),
        "batch.compile_calls_per_fleet": _per(
            _calls(records, "batch.compile"), fleets
        ),
        "batch.eval_us_per_target": 1e6 * _per(
            _total(profile, "batch.eval"), batch_points
        ),
        "async.run_us": mean_us("async.run"),
        "async.runs": _per(_calls(records, "async.run"), scenarios),
        "byzantine.run_us": mean_us("byzantine.run"),
        "variants.run_us": mean_us("variants.run"),
        "trace.coverage": _per(
            sum(r.duration for r in roots(records)), wall_s
        ),
    }
