"""Dependency-free observability: metrics, tracing, health, events.

The subsystem the rest of the reproduction reports into:

* :class:`MetricsRegistry` — labeled counters, gauges, and fixed-bucket
  histograms, with JSON (:meth:`MetricsRegistry.to_dict`) and Prometheus
  text (:meth:`MetricsRegistry.to_prometheus`) exporters;
* :class:`Span` / :func:`trace` — monotonic per-phase timings;
* :class:`TraceContext` / :func:`trace_context` — hierarchical request
  tracing across threads, processes, and sampled single-pass batches,
  with JSONL export and a tree renderer (``repro trace``);
* :class:`HealthStore` — per-query-signature rolling windows of pruning
  ratio, bloom fill/FPR, cache hit rates and latency, with EWMA drift
  detectors that emit degradation events;
* :class:`EventLog` / :class:`Event` — a bounded structured event ring
  unifying shed/degradation/fault/invalidation events (``repro health``);
* :func:`ratio` — the shared pruning-rate helper (0.0 on empty input);
* :func:`null_registry` — a disabled registry whose samples are no-ops,
  used to measure the overhead of the instrumentation itself.
"""

from .events import Event, EventLog
from .health import HealthStore, SignatureHealth
from .registry import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanRing,
    histogram_quantile,
    null_registry,
    ratio,
)
from .tracing import (
    SPAN_BUCKETS,
    Span,
    TraceContext,
    clear_trace_context,
    current_context,
    export_trace_jsonl,
    format_trace_tree,
    load_trace_jsonl,
    trace,
    trace_context,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "HealthStore",
    "Histogram",
    "MetricsRegistry",
    "SignatureHealth",
    "SpanRing",
    "histogram_quantile",
    "null_registry",
    "ratio",
    "SPAN_BUCKETS",
    "Span",
    "TraceContext",
    "clear_trace_context",
    "current_context",
    "export_trace_jsonl",
    "format_trace_tree",
    "load_trace_jsonl",
    "trace",
    "trace_context",
]
