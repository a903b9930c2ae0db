""":class:`QueryService` — the concurrent query-serving loop.

Three kinds of thread cooperate around the admission queue:

* **client threads** call :meth:`QueryService.submit` (parse, cache
  lookup, admission) and block on the returned
  :class:`~repro.serve.admission.Request` ticket;
* **one scheduler thread** pops pipeline slots — the head request plus
  any §6-packable companions chosen by the
  :class:`~repro.serve.scheduler.PackingScheduler` — and hands them to
  the executor pool;
* **executor threads** drive the engine: ``Cluster.run_packed`` for
  packed slots, ``Cluster.run`` for solo slots (multi-pass operators,
  WHERE-carrying queries), with the parallel runner engaged
  automatically whenever ``ClusterConfig.parallelism > 1``.

Exactness is non-negotiable: a request either receives the same output
``Cluster.run_verified`` would produce, or it fails with a typed error
(:class:`~repro.errors.Overloaded` when shed, the engine's own error
otherwise).  Overload can delay or reject work; it can never corrupt an
answer.

Shutdown is graceful by default: admission closes (new submits shed
with ``"shutting-down"``), the backlog drains, inflight slots finish,
and only then do the threads exit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Union

from ..engine.cluster import Cluster, ClusterConfig
from ..engine.plan import Query
from ..engine.reference import TableMap, run_reference
from ..engine.sql import parse
from ..errors import ConfigurationError
from ..obs import (
    EventLog,
    HealthStore,
    MetricsRegistry,
    Span,
    TraceContext,
    export_trace_jsonl,
    histogram_quantile,
    trace_context,
)
from ..switch.compiler import compile_cache_stats
from .admission import AdmissionController, Request
from .cache import ProgramCache, ResultCache
from .scheduler import PackingScheduler, Slot

#: Latency-histogram buckets (seconds) for per-tenant request latency —
#: finer-grained at the fast end than the engine's span buckets, since
#: cache hits and small packed queries land well under a millisecond.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


class QueryService:
    """A running Cheetah cluster behind admission control.

    The service owns its scheduler thread and executor pool from
    construction until :meth:`shutdown`; use it as a context manager to
    guarantee the graceful drain::

        with QueryService(tables, workers=5) as service:
            assert service.query("SELECT COUNT(*) FROM T WHERE x > 3") == 7
    """

    def __init__(
        self,
        tables: TableMap,
        workers: int = 5,
        config: Optional[ClusterConfig] = None,
        *,
        max_queue: int = 128,
        worker_threads: int = 2,
        max_pack: int = 4,
        default_timeout: Optional[float] = None,
        verify: bool = False,
        trace_requests: bool = True,
        max_spans: int = 4096,
        adapt: bool = False,
        adapt_interval: float = 0.25,
        results: Optional[ResultCache] = None,
        quota=None,
        fairness=None,
    ) -> None:
        if worker_threads <= 0:
            raise ConfigurationError(
                f"worker_threads must be positive, got {worker_threads}"
            )
        self.cluster = Cluster(workers=workers, config=config)
        self.registry = MetricsRegistry()
        # Long-running services append spans per request: bound the span
        # store so memory stays flat (drops are counted, never silent).
        self.registry.cap_spans(max_spans)
        self.events = EventLog(registry=self.registry)
        self.health = HealthStore(registry=self.registry, events=self.events)
        self.verify = verify
        self.trace_requests = trace_requests
        self.default_timeout = default_timeout
        self.programs = ProgramCache()
        # ``results`` may be a cache shared across fleet replicas (all
        # keyed by (cache_key, tables_version), so replicas at different
        # versions mid-rolling-update can never serve each other's stale
        # answers).  A shared cache is never eagerly swept by this
        # service's ``update_tables`` — the fleet controller owns the
        # floor sweep once every replica has crossed the version.
        self.results = results if results is not None else ResultCache()
        self._owns_results = results is None
        self.admission = AdmissionController(
            max_queue,
            registry=self.registry,
            concurrency=worker_threads,
            events=self.events,
            quota=quota,
        )
        self.scheduler = PackingScheduler(
            self.cluster,
            self.programs,
            max_pack=max_pack,
            fairness=fairness,
        )
        self._tables: Dict[str, object] = dict(tables)
        self._tables_version = 0
        #: Guards the counters, tenant-labeled sample creation, and spans.
        self._metrics_lock = threading.Lock()
        #: Guards inflight accounting and table swaps; notified on drain.
        self._state = threading.Condition()
        self._inflight = 0
        self._paused = False
        self._stopping = False
        self._closed = False
        self._latency: Dict[str, object] = {}
        # Pre-create fixed-label samples on the constructing thread, so
        # executor threads only ever *increment* them (the registry's
        # family dict is not touched concurrently).
        self._inflight_gauge = self.registry.gauge(
            "serve_inflight", "Requests currently executing in a slot."
        )
        self._slots_counters = {
            kind: self.registry.counter(
                "serve_slots_total", "Pipeline slots executed, by kind.",
                kind=kind,
            )
            for kind in ("packed", "solo")
        }
        self._packed_queries_counter = self.registry.counter(
            "serve_packed_queries_total",
            "Queries answered from a shared packed streaming pass.",
        )
        self._cache_hits_counter = self.registry.counter(
            "serve_cache_hits_total", "Requests answered from the result cache."
        )
        self._cache_misses_counter = self.registry.counter(
            "serve_cache_misses_total", "Requests that required execution."
        )
        self._streamed_counter = self.registry.counter(
            "serve_entries_streamed_total",
            "Entries streamed by slots this service executed.",
        )
        self._forwarded_counter = self.registry.counter(
            "serve_entries_forwarded_total",
            "Entries forwarded to the master by slots this service executed.",
        )
        # Engine-level structured events (shard timeouts, pool respawns)
        # land in the same log as the serving layer's own.
        self.cluster.events = self.events
        #: The adaptive runtime (None unless ``adapt=True``): a per-
        #: signature config-override store leased by every engine pass,
        #: and the remediation engine ticking over health detections.
        self.adaptive = None
        self.remediation = None
        self._adapt_stop = threading.Event()
        self._adapt_thread: Optional[threading.Thread] = None
        if adapt:
            from ..adapt import AdaptiveConfigStore, RemediationEngine

            self.adaptive = AdaptiveConfigStore(self.cluster.config)
            self.cluster.adaptive = self.adaptive
            self.remediation = RemediationEngine(
                health=self.health,
                store=self.adaptive,
                events=self.events,
                registry=self.registry,
                invalidate=self._invalidate_signature,
            )
            if adapt_interval > 0:
                self._adapt_thread = threading.Thread(
                    target=self._adapt_loop,
                    args=(adapt_interval,),
                    name="serve-adapt",
                    daemon=True,
                )
                self._adapt_thread.start()
        self._pool = ThreadPoolExecutor(
            max_workers=worker_threads, thread_name_prefix="serve-exec"
        )
        self._scheduler_thread = threading.Thread(
            target=self._schedule_loop, name="serve-scheduler", daemon=True
        )
        self._scheduler_thread.start()
        # Lifecycle markers bracket the operational history: every event
        # export carries at least the start/shutdown pair, so downstream
        # consumers can tell "no incidents" from "no data".
        self.events.emit(
            "lifecycle",
            f"service started ({workers} workers, "
            f"{worker_threads} executor threads)",
            source="serve",
            workers=str(workers),
            threads=str(worker_threads),
        )

    # -- client API ----------------------------------------------------------

    def submit(
        self,
        query: Union[str, Query],
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> Request:
        """Parse, admit, and return the request ticket (non-blocking).

        ``query`` may be SQL text (parsed here, so a ``PlanError``
        surfaces to the caller immediately) or an already-built
        :class:`~repro.engine.plan.Query`.  ``timeout`` (or the
        service's ``default_timeout``) becomes the request's deadline
        budget.  Raises :class:`~repro.errors.Overloaded` when admission
        sheds the request.

        A result-cache hit for the same canonical plan at the current
        table version completes the ticket immediately — exactness is
        preserved because :meth:`update_tables` bumps the version.
        """
        if isinstance(query, str):
            sql, plan = query, parse(query)
        else:
            sql, plan = None, query
        budget = timeout if timeout is not None else self.default_timeout
        deadline = time.monotonic() + budget if budget is not None else None
        request = Request(plan, tenant=tenant, deadline=deadline, sql=sql)
        if self.trace_requests:
            request.trace = TraceContext.root()
        with self._metrics_lock:
            self._tenant_counter("serve_requests_total", tenant).inc()
        # A closed service answers nothing, not even from cache: skip the
        # lookup and let admission raise the typed "shutting-down" shed.
        hit, output = (
            (False, None)
            if self._closed
            else self.results.get(plan.cache_key(), self._tables_version)
        )
        if hit:
            now = time.monotonic()
            for stamp in ("queued", "scheduled", "executed"):
                request.timeline[stamp] = now
            request.complete(output)
            with self._metrics_lock:
                self._cache_hits_counter.inc()
                self._account_completion_locked(request, packed=False, cached=True)
            self.health.observe_latency(
                plan.cache_key(),
                request.timeline["completed"] - request.timeline["submitted"],
            )
            return request
        with self._metrics_lock:
            self._cache_misses_counter.inc()
        self.admission.admit(request)
        return request

    def query(
        self,
        query: Union[str, Query],
        tenant: str = "default",
        timeout: Optional[float] = None,
    ) -> object:
        """Submit and block for the exact output (or the typed error)."""
        return self.submit(query, tenant=tenant, timeout=timeout).result()

    def update_tables(self, tables: Optional[TableMap] = None) -> int:
        """Swap/refresh the served tables; bumps the table version.

        Bumping the version is what invalidates the result cache —
        entries for older versions simply never match again and age out
        of the LRU.  Returns the new version.
        """
        with self._state:
            if tables is not None:
                self._tables = dict(tables)
            self._tables_version += 1
            version = self._tables_version
        from ..parallel.shard import invalidate_shard_plans

        # A privately-owned cache is swept eagerly; a fleet-shared one is
        # left to the controller, which sweeps at the minimum version
        # still live across replicas once the rolling update completes.
        stale_results = (
            self.results.evict_stale(version) if self._owns_results else 0
        )
        dropped_plans = invalidate_shard_plans()
        self.events.emit(
            "cache-invalidation",
            f"tables updated to version {version}; result cache invalidated",
            source="serve",
            severity="info",
            version=str(version),
            stale_results=str(stale_results),
            shard_plans=str(dropped_plans),
        )
        return version

    @property
    def tables_version(self) -> int:
        """The current table version (result-cache epoch)."""
        return self._tables_version

    @property
    def tables(self) -> TableMap:
        """The currently served table map (treat as read-only)."""
        return self._tables

    @property
    def inflight(self) -> int:
        """Requests currently executing in a slot (point-in-time)."""
        return self._inflight

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a pipeline slot (point-in-time)."""
        return self.admission.depth

    @property
    def occupancy(self) -> int:
        """Queued plus executing requests — the router's load signal."""
        return self.admission.depth + self._inflight

    def latency_histograms(self) -> Dict[str, object]:
        """A snapshot of the per-tenant latency histograms.

        The fleet controller merges these bucket-by-bucket across
        replicas to report fleet-wide per-tenant quantiles (quantiles of
        merged histograms are well-defined; merged quantiles are not).
        """
        with self._metrics_lock:
            return dict(self._latency)

    # -- adaptive runtime ----------------------------------------------------

    def _invalidate_signature(self, signature: str) -> None:
        """The remediation engine's version fence into the serving caches.

        Both caches drop every entry for the swapped signature (each
        sweep atomic under its cache's lock), so no footprint or cached
        answer compiled or computed under the old configuration outlives
        the hot-swap.
        """
        programs = self.programs.invalidate_signature(signature)
        results = self.results.invalidate_signature(signature)
        self.events.emit(
            "cache-invalidation",
            f"remediation hot-swap dropped {programs} program and "
            f"{results} result cache entries",
            source="adapt",
            severity="info",
            signature=signature,
            programs=str(programs),
            results=str(results),
        )

    def _adapt_loop(self, interval: float) -> None:
        while not self._adapt_stop.wait(interval):
            try:
                self.remediation.tick()
            except Exception as error:  # never kill the tick thread
                self.events.emit(
                    "fault",
                    f"remediation tick failed: {error}",
                    source="adapt",
                    severity="error",
                    error=type(error).__name__,
                )

    # -- test/operator hooks -------------------------------------------------

    def pause(self) -> None:
        """Hold the scheduler: requests queue up but no slot is popped.

        Deterministic-packing hook for tests and the benchmark — queue
        several compatible queries while paused, then :meth:`resume` and
        watch them leave in one packed slot.
        """
        with self.admission.condition:
            self._paused = True

    def resume(self) -> None:
        """Release a :meth:`pause`; the scheduler drains the backlog."""
        with self.admission.condition:
            self._paused = False
            self.admission.condition.notify_all()

    # -- lifecycle -----------------------------------------------------------

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service; graceful by default.

        ``drain=True`` executes every already-admitted request before
        the threads exit (new submits shed with ``"shutting-down"``);
        ``drain=False`` sheds the backlog too — queued tickets fail with
        the typed error, but slots already executing still finish and
        deliver exact results.  Idempotent.
        """
        with self.admission.condition:
            if self._closed:
                return
            self._closed = True
            self._stopping = True
            self._paused = False
        self._adapt_stop.set()
        if self._adapt_thread is not None:
            self._adapt_thread.join(timeout)
        self.admission.close(drain=drain)
        self._scheduler_thread.join(timeout)
        with self._state:
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._inflight:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._state.wait(remaining if remaining is not None else 0.1)
        self._pool.shutdown(wait=True)
        # Every slot has drained: drop the memoized shard plans.
        from ..parallel.shard import invalidate_shard_plans

        invalidate_shard_plans()
        self.events.emit(
            "lifecycle",
            f"service shut down ({'drained' if drain else 'shed backlog'})",
            source="serve",
            drain=str(drain).lower(),
        )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown(drain=True)

    # -- scheduler thread ----------------------------------------------------

    def _schedule_loop(self) -> None:
        admission = self.admission
        while True:
            with admission.condition:
                while self._paused or (
                    admission.depth == 0 and not self._stopping
                ):
                    if self._stopping and admission.depth == 0:
                        return
                    admission.condition.wait()
                if admission.depth == 0 and self._stopping:
                    return
                tables = self._tables
                version = self._tables_version
                batch = admission.pop_slot(
                    lambda head, queued: self.scheduler.plan_extras(
                        head, queued, tables
                    ),
                    choose_head=self.scheduler.choose_head,
                )
            if not batch:
                continue
            now = time.monotonic()
            for request in batch:
                request.timeline["scheduled"] = now
            with self._state:
                self._inflight += len(batch)
                self._inflight_gauge.set(self._inflight)
            self._pool.submit(self._run_slot, Slot(batch), tables, version)

    # -- executor threads ----------------------------------------------------

    def _run_slot(self, slot: Slot, tables: TableMap, version: int) -> None:
        start = time.monotonic()
        requests = slot.requests
        # Each request gets an execution-phase context under its own
        # trace root.  A packed slot runs ONE engine pass: its phase
        # spans parent under the head request's context (companions keep
        # their serve-side spans in their own trees).
        for request in requests:
            if request.trace is not None:
                request.exec_ctx = request.trace.child()
        try:
            with trace_context(requests[0].exec_ctx):
                if slot.packed:
                    packed = self.cluster.run_packed(slot.queries, tables)
                    outputs = [result.output for result in packed.results]
                    streamed, forwarded = (
                        packed.total_streamed, packed.total_forwarded,
                    )
                    engine = [packed.metrics] + [r.metrics for r in packed.results]
                    health_pairs = list(zip(requests, packed.results))
                    kind = "packed"
                else:
                    result = self.cluster.run(requests[0].query, tables)
                    outputs = [result.output]
                    streamed, forwarded = (
                        result.total_streamed, result.total_forwarded,
                    )
                    engine = [result.metrics]
                    health_pairs = [(requests[0], result)]
                    kind = "solo"
            if self.verify:
                for request, output in zip(requests, outputs):
                    expected = run_reference(request.query, tables)
                    if output != expected:
                        raise AssertionError(
                            f"serving parity violated for "
                            f"{request.query.describe()}: got {output!r}, "
                            f"expected {expected!r}"
                        )
            executed = time.monotonic()
            for request, output in zip(requests, outputs):
                request.timeline["executed"] = executed
                self.results.put(request.query.cache_key(), version, output)
                request.complete(output)
            with self._metrics_lock:
                self._slots_counters[kind].inc()
                if kind == "packed":
                    self._packed_queries_counter.inc(len(requests))
                self._streamed_counter.inc(streamed)
                self._forwarded_counter.inc(forwarded)
                for request in requests:
                    self._account_completion_locked(
                        request, packed=slot.packed, cached=False
                    )
                self._absorb_engine_spans_locked(engine)
            for request, run_result in health_pairs:
                self.health.observe_run(
                    request.query.cache_key(),
                    run_result,
                    request.timeline["completed"] - request.timeline["submitted"],
                )
        except Exception as error:
            executed = time.monotonic()
            for request in requests:
                if not request.done():
                    request.timeline.setdefault("executed", executed)
                    request.fail(error)
            with self._metrics_lock:
                for request in requests:
                    self._tenant_counter(
                        "serve_failed_total", request.tenant
                    ).inc()
            for request in requests:
                self.events.emit(
                    "fault",
                    f"slot execution failed: {error}",
                    source="serve",
                    severity="error",
                    request=str(request.id),
                    tenant=request.tenant,
                    error=type(error).__name__,
                )
        finally:
            elapsed = time.monotonic() - start
            self.admission.note_service_seconds(elapsed / max(1, len(requests)))
            with self._state:
                self._inflight -= len(requests)
                self._inflight_gauge.set(self._inflight)
                self._state.notify_all()

    # -- accounting (callers hold _metrics_lock) -----------------------------

    def _tenant_counter(self, name: str, tenant: str):
        return self.registry.counter(
            name, "Per-tenant serving-layer totals.", tenant=tenant
        )

    def _latency_histogram(self, tenant: str):
        sample = self._latency.get(tenant)
        if sample is None:
            sample = self.registry.histogram(
                "serve_request_seconds",
                "End-to-end request latency (submit to completion).",
                buckets=LATENCY_BUCKETS,
                tenant=tenant,
            )
            self._latency[tenant] = sample
        return sample

    def _account_completion_locked(
        self, request: Request, packed: bool, cached: bool
    ) -> None:
        timeline = request.timeline
        total = timeline["completed"] - timeline["submitted"]
        self._tenant_counter("serve_completed_total", request.tenant).inc()
        self._latency_histogram(request.tenant).observe(total)
        if not self.trace_requests:
            return
        labels = {
            "request": str(request.id),
            "tenant": request.tenant,
            "packed": "true" if packed else "false",
            "cached": "true" if cached else "false",
        }
        queued_s = timeline.get("scheduled", timeline["completed"]) - timeline.get(
            "queued", timeline["submitted"]
        )
        executed_at = timeline.get("executed", timeline["completed"])
        scheduled_at = timeline.get("scheduled", timeline["submitted"])
        queued_span = Span("serve-queued", queued_s, dict(labels))
        execute_span = Span("serve-execute", executed_at - scheduled_at, dict(labels))
        request_span = Span("serve-request", total, dict(labels))
        if request.trace is not None:
            # serve-request IS the trace root; queued/execute hang under
            # it.  The execute span reuses the request's execution
            # context, so the engine's phase spans (recorded while that
            # context was active) appear as its children in the tree.
            root = request.trace
            request_span.trace_id = root.trace_id
            request_span.span_id = root.span_id
            request_span.parent_id = root.parent_id
            queued_ctx = root.child()
            queued_span.trace_id = queued_ctx.trace_id
            queued_span.span_id = queued_ctx.span_id
            queued_span.parent_id = queued_ctx.parent_id
            exec_ctx = request.exec_ctx or root.child()
            execute_span.trace_id = exec_ctx.trace_id
            execute_span.span_id = exec_ctx.span_id
            execute_span.parent_id = exec_ctx.parent_id
        self.registry.spans.append(queued_span)
        self.registry.spans.append(execute_span)
        self.registry.spans.append(request_span)

    def _absorb_engine_spans_locked(self, registries) -> None:
        """Fold trace-placed engine spans into the service registry.

        Packed slots hand several result registries that may alias one
        shared object — dedupe by identity — and only spans that carry
        trace ids are copied: with tracing off the service registry's
        span content is exactly what it was before this feature.
        """
        seen = set()
        for source in registries:
            if source is None or id(source) in seen or source is self.registry:
                continue
            seen.add(id(source))
            for span in source.spans:
                if span.trace_id is not None:
                    self.registry.spans.append(span)

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict:
        """The service's JSON-ready report (a bench-style envelope).

        Top-level keys follow the ``{"benchmark", "artifact", "metrics"}``
        shape ``scripts/check_schema.py`` validates, with the
        human-facing roll-up under ``summary``, per-tenant p50/p99
        request latency (milliseconds) under ``latency_ms``, per-query-
        signature health windows under ``health``, and the retained
        structured events under ``events``.
        """
        registry = self.registry
        with self._metrics_lock:
            summary = {
                "requests": registry.counter_total("serve_requests_total"),
                "completed": registry.counter_total("serve_completed_total"),
                "failed": registry.counter_total("serve_failed_total"),
                "cache_hits": self._cache_hits_counter.value,
                "cache_misses": self._cache_misses_counter.value,
                "slots_packed": self._slots_counters["packed"].value,
                "slots_solo": self._slots_counters["solo"].value,
                "packed_queries": self._packed_queries_counter.value,
                "streamed": self._streamed_counter.value,
                "forwarded": self._forwarded_counter.value,
            }
            latency = {
                tenant: {
                    "count": sample.count,
                    "p50": histogram_quantile(sample, 0.50) * 1000.0,
                    "p99": histogram_quantile(sample, 0.99) * 1000.0,
                }
                for tenant, sample in sorted(self._latency.items())
            }
            metrics = registry.to_dict()
        streamed = summary["streamed"]
        pruned = streamed - summary["forwarded"]
        summary["pruning_rate"] = pruned / streamed if streamed else 0.0
        summary["queue_depth"] = self.admission.depth
        summary["inflight"] = self._inflight
        summary["tables_version"] = self._tables_version
        summary["program_cache"] = self.programs.stats()
        summary["result_cache"] = self.results.stats()
        summary["compile_cache"] = {"fit_pack": compile_cache_stats()}
        from ..parallel.shard import shard_plan_cache_stats

        summary["shard_plan_cache"] = shard_plan_cache_stats()
        summary["degraded_signatures"] = self.health.degraded_signatures()
        if self.remediation is not None:
            summary["remediation"] = self.remediation.stats()
        return {
            "benchmark": "serving",
            "artifact": "query-service",
            "summary": summary,
            "latency_ms": latency,
            "metrics": metrics,
            "health": self.health.snapshot(),
            "events": self.events.snapshot(),
        }

    def export_trace(self, path: str) -> int:
        """Write the retained trace-placed spans to ``path`` as JSONL.

        Returns the number of spans written; render the file with
        ``repro trace <path>``.  Only spans still inside the bounded
        span ring are exported.
        """
        with self._metrics_lock:
            spans = list(self.registry.spans)
        return export_trace_jsonl(spans, path)

    def export_events(self, path: str) -> int:
        """Write the retained structured events to ``path`` as JSONL."""
        return self.events.to_jsonl(path)
