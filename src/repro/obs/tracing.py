"""Per-phase and end-to-end tracing: spans, trace contexts, exports.

A :class:`Span` is a named, labeled interval measured with the monotonic
``time.perf_counter()`` clock — wall-time that cannot go backwards when
the system clock is adjusted.  The cluster wraps each run phase
(partitioning, the switch pass, master completion) in a span; finished
spans accumulate on the owning :class:`~repro.obs.registry.MetricsRegistry`
and are additionally observed into a ``span_seconds`` histogram labeled
by span name, so duration distributions survive the Prometheus export.

On top of the flat span records sits **hierarchical tracing**: a
:class:`TraceContext` names one node of a request's trace tree with a
``(trace_id, span_id, parent_id)`` triple.  When a context is *active*
(installed with :func:`trace_context`, tracked per thread/task in a
:class:`contextvars.ContextVar`), every :func:`trace` block stamps its
span with the active trace's ids and installs itself as the parent for
nested blocks — so the serving layer activates one root context per
request and the engine phases, parallel shard tasks (the context rides
the picklable task spec across the process boundary), and sampled
single-pass batches all thread into one per-request tree.  With no active
context, spans carry no ids and behave exactly as before.

Finished traces export as JSONL (:func:`export_trace_jsonl`, one span
object per line) and render as indented trees
(:func:`format_trace_tree`, the ``repro trace`` CLI view).

Timings are *representation-dependent* (a batch run is faster than a
scalar one), so spans and histograms are deliberately excluded from the
scalar-vs-batch counter-equality contract.
"""

from __future__ import annotations

import json
import time
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

#: Histogram buckets for span durations (seconds).
SPAN_BUCKETS = (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


def _new_id() -> str:
    """A fresh 64-bit hex id (random, collision-safe across processes)."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class TraceContext:
    """One node of a request's trace tree: ``(trace_id, span_id, parent_id)``.

    Immutable by design — propagation always *derives* (:meth:`child`)
    rather than mutates, so a context captured by a shard task spec or a
    companion request can never be corrupted by concurrent execution.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    @classmethod
    def root(cls) -> "TraceContext":
        """A new trace root with a fresh trace id."""
        return cls(trace_id=_new_id(), span_id=_new_id(), parent_id=None)

    def child(self) -> "TraceContext":
        """A new node parented under this one, in the same trace."""
        return TraceContext(
            trace_id=self.trace_id, span_id=_new_id(), parent_id=self.span_id
        )

    def to_dict(self) -> dict:
        """Picklable/JSON-ready form (the shape shard task specs carry)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_dict(cls, dump: dict) -> "TraceContext":
        """Rebuild a context from :meth:`to_dict` output."""
        return cls(
            trace_id=str(dump["trace_id"]),
            span_id=str(dump["span_id"]),
            parent_id=dump.get("parent_id"),
        )


#: The active trace context of the current thread/task (None: tracing off).
_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "cheetah_trace_context", default=None
)


def current_context() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or None when tracing is off."""
    return _CURRENT.get()


@contextmanager
def trace_context(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Activate ``context`` for the enclosed block (None is a no-op).

    Every :func:`trace` span recorded inside the block becomes part of
    ``context``'s trace; the previous context is restored on exit, so
    nested activations (a service request inside a test's own trace)
    compose correctly.
    """
    if context is None:
        yield None
        return
    token = _CURRENT.set(context)
    try:
        yield context
    finally:
        _CURRENT.reset(token)


@contextmanager
def clear_trace_context() -> Iterator[None]:
    """Deactivate any inherited trace context for the enclosed block.

    Pooled worker processes are forked lazily: a pool first created
    while a trace context was active inherits that context's
    ``ContextVar`` snapshot forever.  Task entry points use this to
    guarantee tracing is *off* unless the task spec explicitly carries a
    context — otherwise untraced requests would record sampled spans
    stamped with a stale, unrelated trace.
    """
    token = _CURRENT.set(None)
    try:
        yield
    finally:
        _CURRENT.reset(token)


@dataclass
class Span:
    """One finished timed interval, optionally placed in a trace tree.

    ``trace_id``/``span_id``/``parent_id`` are None for spans recorded
    with no active :class:`TraceContext` — the flat, pre-tracing shape —
    and the serializers omit them in that case, so existing span dumps
    round-trip unchanged.
    """

    name: str
    seconds: float
    labels: Dict[str, str] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_id: Optional[str] = None

    def relabel(self, **extra_labels: object) -> "Span":
        """A copy of this span with ``extra_labels`` merged in."""
        labels = dict(self.labels)
        labels.update({str(k): str(v) for k, v in extra_labels.items()})
        return Span(
            self.name,
            self.seconds,
            labels,
            trace_id=self.trace_id,
            span_id=self.span_id,
            parent_id=self.parent_id,
        )

    def to_dict(self) -> dict:
        """JSON-ready form (trace ids included only when present)."""
        dump = {"name": self.name, "seconds": self.seconds, "labels": dict(self.labels)}
        if self.trace_id is not None:
            dump["trace_id"] = self.trace_id
            dump["span_id"] = self.span_id
            dump["parent_id"] = self.parent_id
        return dump

    @classmethod
    def from_dict(cls, dump: dict) -> "Span":
        """Rebuild a span from :meth:`to_dict` output."""
        return cls(
            dump["name"],
            float(dump["seconds"]),
            {str(k): str(v) for k, v in dump.get("labels", {}).items()},
            trace_id=dump.get("trace_id"),
            span_id=dump.get("span_id"),
            parent_id=dump.get("parent_id"),
        )


@contextmanager
def trace(registry, name: str, **labels: object) -> Iterator[Span]:
    """Time the enclosed block as a span on ``registry``.

    The span is recorded even when the block raises, so failed phases
    still show up in the report.  On a disabled registry the span object
    is yielded (callers may inspect it) but nothing is recorded.

    When a :class:`TraceContext` is active, the span is stamped with a
    fresh child of it and that child becomes the active context for the
    block — nested :func:`trace` calls (and shard tasks handed the
    context) parent under this span, forming the request's trace tree.
    """
    span = Span(name, 0.0, {str(k): str(v) for k, v in labels.items()})
    parent = _CURRENT.get()
    token = None
    if parent is not None:
        context = parent.child()
        span.trace_id = context.trace_id
        span.span_id = context.span_id
        span.parent_id = context.parent_id
        token = _CURRENT.set(context)
    start = time.perf_counter()
    try:
        yield span
    finally:
        if token is not None:
            _CURRENT.reset(token)
        span.seconds = time.perf_counter() - start
        if registry.enabled:
            registry.spans.append(span)
            registry.histogram(
                "span_seconds",
                "Distribution of span durations by span name.",
                buckets=SPAN_BUCKETS,
                span=name,
            ).observe(span.seconds)


# ---------------------------------------------------------------------------
# Trace exports: JSONL files and the CLI tree view
# ---------------------------------------------------------------------------


def export_trace_jsonl(spans: Iterable[Span], path: str) -> int:
    """Write every trace-placed span to ``path`` as JSONL; return the count.

    Spans with no trace ids (flat per-phase timings recorded outside any
    request context) are skipped — the file holds complete trace trees
    only, one span object per line, ready for ``repro trace``.
    """
    written = 0
    with open(path, "w") as handle:
        for span in spans:
            if span.trace_id is None:
                continue
            handle.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
            written += 1
    return written


def load_trace_jsonl(path: str) -> List[Span]:
    """Read a :func:`export_trace_jsonl` file back into spans."""
    spans: List[Span] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def format_trace_tree(
    spans: Iterable[Span],
    trace_id: Optional[str] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """Render trace-placed spans as indented per-trace trees.

    Spans group by ``trace_id``; within a trace, children indent under
    the span whose ``span_id`` matches their ``parent_id``.  A span whose
    parent was never recorded as a span (e.g. the request root context
    itself) becomes a top-level node of its trace.  Traces print in
    first-seen order, capped at ``limit`` when given.
    """
    by_trace: Dict[str, List[Span]] = {}
    order: List[str] = []
    for span in spans:
        if span.trace_id is None:
            continue
        if trace_id is not None and span.trace_id != trace_id:
            continue
        if span.trace_id not in by_trace:
            by_trace[span.trace_id] = []
            order.append(span.trace_id)
        by_trace[span.trace_id].append(span)
    lines: List[str] = []
    for tid in order[: limit if limit is not None else len(order)]:
        members = by_trace[tid]
        recorded = {span.span_id for span in members}
        children: Dict[Optional[str], List[Span]] = {}
        for span in members:
            parent = span.parent_id if span.parent_id in recorded else None
            children.setdefault(parent, []).append(span)
        lines.append(f"trace {tid} ({len(members)} spans)")

        def _walk(parent: Optional[str], depth: int) -> None:
            for span in children.get(parent, ()):
                label_text = " ".join(
                    f"{k}={v}" for k, v in sorted(span.labels.items())
                )
                suffix = f"  [{label_text}]" if label_text else ""
                lines.append(
                    f"{'  ' * depth}- {span.name}  "
                    f"{span.seconds * 1000:.3f} ms{suffix}"
                )
                _walk(span.span_id, depth + 1)

        _walk(None, 1)
    return lines
