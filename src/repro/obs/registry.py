"""The metrics registry: counters, gauges, and fixed-bucket histograms.

Cheetah's value proposition is a measurable ratio — how much of the
stream the switch absorbs versus what the master completes — so every
layer of the reproduction reports into one dependency-free registry:

* **Counters** — monotonically increasing totals (entries processed,
  entries pruned, per-worker stream volumes).  Counter values are
  *representation-independent*: a scalar run and a batch run of the same
  query produce identical counters, which the equivalence suite asserts.
* **Gauges** — point-in-time levels (Bloom fill ratio, cache-matrix
  occupancy, estimated false-positive rate).  Setting a gauge is
  idempotent, so health snapshots can be refreshed freely.
* **Histograms** — fixed-bucket distributions, used for span durations.

Every metric carries a name plus a small label set (query kind, pruner,
phase, worker...).  Exporters produce a JSON-ready dict
(:meth:`MetricsRegistry.to_dict`, round-tripped by
:meth:`MetricsRegistry.from_dict`) and the Prometheus text exposition
format (:meth:`MetricsRegistry.to_prometheus`).

A registry built with ``enabled=False`` (see :func:`null_registry`)
hands out no-op samples, so instrumentation overhead can itself be
measured — ``benchmarks/bench_throughput.py`` races the two.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Default histogram buckets (seconds), spanning sub-millisecond kernel
#: spans to multi-second end-to-end runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, defined as 0.0 for an empty ``whole``.

    This is *the* pruning-rate definition shared by ``PruneStats``,
    ``PipelineStats`` and the run results — one helper so the
    zero-denominator convention cannot drift between layers.
    """
    return part / whole if whole else 0.0


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def histogram_quantile(histogram: "Histogram", q: float) -> float:
    """Estimate the ``q``-quantile (0..1) of a fixed-bucket histogram.

    Prometheus-style linear interpolation inside the bucket containing
    the target rank; observations in the +Inf overflow bucket clamp to
    the largest finite bound.  Returns 0.0 for an empty histogram.  The
    serving layer uses this for the p50/p99 figures in its reports.
    """
    if not 0.0 <= q <= 1.0:
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    if histogram.count == 0:
        return 0.0
    target = q * histogram.count
    cumulative = 0
    lower = 0.0
    for bound, count in zip(histogram.buckets, histogram.counts):
        if count and cumulative + count >= target:
            fraction = (target - cumulative) / count
            return lower + (bound - lower) * fraction
        cumulative += count
        lower = bound
    return histogram.buckets[-1]


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"counters only increase, got {amount}")
        self.value += amount

    def zero(self) -> None:
        """Reset the sample in place (views over it stay valid)."""
        self.value = 0


class Gauge:
    """A point-in-time level; setting it is idempotent."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: Dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge's current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        self.value += amount

    def zero(self) -> None:
        """Reset the sample in place."""
        self.value = 0.0


class Histogram:
    """A fixed-bucket histogram (cumulative counts, Prometheus-style)."""

    __slots__ = ("labels", "buckets", "counts", "sum", "count")

    def __init__(
        self, labels: Dict[str, str], buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError(
                f"histogram buckets must be a sorted non-empty sequence, got {buckets!r}"
            )
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)  # trailing +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        position = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                position = i
                break
        self.counts[position] += 1
        self.sum += value
        self.count += 1

    def zero(self) -> None:
        """Reset the sample in place."""
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0


class _NullCounter(Counter):
    """Counter that drops every update (disabled registry)."""

    def inc(self, amount: int = 1) -> None:
        """Discard the update."""


class _NullGauge(Gauge):
    """Gauge that drops every update (disabled registry)."""

    def set(self, value: float) -> None:
        """Discard the update."""

    def inc(self, amount: float = 1.0) -> None:
        """Discard the update."""


class _NullHistogram(Histogram):
    """Histogram that drops every observation (disabled registry)."""

    def observe(self, value: float) -> None:
        """Discard the observation."""


class SpanRing:
    """A bounded, list-compatible span store (drop-oldest on overflow).

    Long-running services append spans per request; an unbounded list is
    a slow memory leak.  The ring keeps the newest ``maxlen`` spans and
    invokes ``on_drop`` once per discarded span, which the registry wires
    to a ``spans_dropped_total`` counter so the loss is visible rather
    than silent.  Supports the same operations the plain list did
    (``append``/``extend``/``clear``/iteration/indexing), so every
    existing caller works unchanged.
    """

    __slots__ = ("maxlen", "_items", "_on_drop")

    def __init__(
        self,
        maxlen: int,
        items: Iterable = (),
        on_drop: Optional[Callable[[], None]] = None,
    ) -> None:
        if maxlen <= 0:
            raise ConfigurationError(
                f"span ring capacity must be positive, got {maxlen}"
            )
        self.maxlen = maxlen
        self._items: deque = deque()
        self._on_drop = on_drop
        self.extend(items)

    def append(self, span) -> None:
        """Add one span, evicting the oldest beyond capacity."""
        self._items.append(span)
        while len(self._items) > self.maxlen:
            self._items.popleft()
            if self._on_drop is not None:
                self._on_drop()

    def extend(self, spans: Iterable) -> None:
        """Append every span of ``spans`` in order."""
        for span in spans:
            self.append(span)

    def clear(self) -> None:
        """Drop every retained span (does not count as overflow drops)."""
        self._items.clear()

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._items)[index]
        return self._items[index]


class _Family:
    """One named metric: its kind, help string, and labeled samples."""

    __slots__ = ("name", "kind", "help", "buckets", "samples")

    def __init__(
        self, name: str, kind: str, help: str, buckets: Optional[Sequence[float]]
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self.samples: Dict[LabelKey, object] = {}


_KINDS = ("counter", "gauge", "histogram")
_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


class MetricsRegistry:
    """A named collection of counters, gauges, and histograms with labels.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    for a ``(name, labels)`` pair creates the sample, later calls return
    the same object, so hot paths can hold a direct reference and pay one
    attribute increment per event.

    Registries compose: :meth:`absorb` folds another registry's samples
    (and spans) into this one under extra labels, which is how per-pruner
    registries roll up into a per-run report.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}
        #: Finished spans, in completion order (see :mod:`repro.obs.tracing`).
        self.spans: List = []

    # -- sample creation -----------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Sequence[float]] = None,
    ) -> _Family:
        if not name or not set(name) <= _NAME_OK or name[0].isdigit():
            raise ConfigurationError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"requested {kind}"
            )
        else:
            if help and not family.help:
                family.help = help
        return family

    def counter(self, name: str, help: str = "", **labels: object) -> Counter:
        """Get or create the counter sample ``name{labels}``."""
        if not self.enabled:
            return _NULL_COUNTER
        family = self._family(name, "counter", help)
        key = _label_key(labels)
        sample = family.samples.get(key)
        if sample is None:
            sample = Counter({str(k): str(v) for k, v in labels.items()})
            family.samples[key] = sample
        return sample

    def gauge(self, name: str, help: str = "", **labels: object) -> Gauge:
        """Get or create the gauge sample ``name{labels}``."""
        if not self.enabled:
            return _NULL_GAUGE
        family = self._family(name, "gauge", help)
        key = _label_key(labels)
        sample = family.samples.get(key)
        if sample is None:
            sample = Gauge({str(k): str(v) for k, v in labels.items()})
            family.samples[key] = sample
        return sample

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """Get or create the histogram sample ``name{labels}``."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        family = self._family(name, "histogram", help, buckets)
        key = _label_key(labels)
        sample = family.samples.get(key)
        if sample is None:
            sample = Histogram(
                {str(k): str(v) for k, v in labels.items()},
                family.buckets if family.buckets is not None else buckets,
            )
            family.samples[key] = sample
        return sample

    def trace(self, name: str, **labels: object):
        """Start a span context manager timing a phase (see tracing)."""
        from .tracing import trace

        return trace(self, name, **labels)

    def cap_spans(self, max_spans: int) -> None:
        """Bound :attr:`spans` to a :class:`SpanRing` of ``max_spans``.

        Long-running owners (the serving layer) call this once at
        construction: already-recorded spans are retained up to the cap,
        and every span evicted later increments ``spans_dropped_total``.
        Idempotent in effect — calling again re-caps at the new size.
        """
        dropped = self.counter(
            "spans_dropped_total",
            "Spans evicted from the bounded span ring (oldest first).",
        )
        self.spans = SpanRing(max_spans, items=self.spans, on_drop=dropped.inc)

    # -- lifecycle -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every sample *in place* and drop recorded spans.

        Samples are zeroed rather than discarded so live views (e.g. a
        pruner's ``stats``) keep observing the same objects.
        """
        for family in self._families.values():
            for sample in family.samples.values():
                sample.zero()
        self.spans.clear()

    def absorb(self, other: "MetricsRegistry", **extra_labels: object) -> None:
        """Fold ``other``'s samples and spans into this registry.

        Counters add, gauges overwrite, histograms merge bucket-wise, and
        ``extra_labels`` are stamped onto every absorbed sample — the
        roll-up path from per-pruner registries to a per-run report.
        """
        for name, family in other._families.items():
            for sample in family.samples.values():
                labels = dict(sample.labels)
                labels.update({str(k): str(v) for k, v in extra_labels.items()})
                if family.kind == "counter":
                    self.counter(name, family.help, **labels).inc(sample.value)
                elif family.kind == "gauge":
                    self.gauge(name, family.help, **labels).set(sample.value)
                else:
                    target = self.histogram(
                        name, family.help, buckets=sample.buckets, **labels
                    )
                    if target.buckets != sample.buckets:
                        raise ConfigurationError(
                            f"cannot merge histogram {name!r}: bucket layouts differ"
                        )
                    for i, count in enumerate(sample.counts):
                        target.counts[i] += count
                    target.sum += sample.sum
                    target.count += sample.count
        for span in other.spans:
            self.spans.append(span.relabel(**extra_labels))

    def absorb_sharded(self, other: "MetricsRegistry", shard: int) -> None:
        """Fold a per-shard registry into this one, the parallel-merge way.

        Counters and histograms are summed *without* a shard label — they
        are additive totals, and keeping them unlabeled is what makes a
        merged parallel report's counter values equal a sequential run's.
        Gauges are levels, which do not add across processes, so each
        shard's gauge (and its spans) keeps its identity under a
        ``shard`` label.
        """
        for name, family in other._families.items():
            for sample in family.samples.values():
                if family.kind == "counter":
                    self.counter(name, family.help, **sample.labels).inc(
                        sample.value
                    )
                elif family.kind == "gauge":
                    labels = dict(sample.labels)
                    labels["shard"] = str(shard)
                    self.gauge(name, family.help, **labels).set(sample.value)
                else:
                    target = self.histogram(
                        name, family.help, buckets=sample.buckets, **sample.labels
                    )
                    if target.buckets != sample.buckets:
                        raise ConfigurationError(
                            f"cannot merge histogram {name!r}: bucket layouts differ"
                        )
                    for i, count in enumerate(sample.counts):
                        target.counts[i] += count
                    target.sum += sample.sum
                    target.count += sample.count
        for span in other.spans:
            self.spans.append(span.relabel(shard=str(shard)))

    # -- introspection -------------------------------------------------------

    def counter_values(self) -> Dict[str, int]:
        """Flat ``{"name{k=v,...}": value}`` map of every counter sample.

        The canonical form compared by the scalar-vs-batch equivalence
        suite: two runs agree on counters iff these dicts are equal.
        """
        out: Dict[str, int] = {}
        for name, family in sorted(self._families.items()):
            if family.kind != "counter":
                continue
            for key, sample in sorted(family.samples.items()):
                rendered = ",".join(f"{k}={v}" for k, v in key)
                out[f"{name}{{{rendered}}}"] = sample.value
        return out

    def counter_total(self, name: str) -> int:
        """The sum of counter ``name`` over all its label sets (0 if unseen)."""
        family = self._families.get(name)
        if family is None or family.kind != "counter":
            return 0
        return sum(sample.value for sample in family.samples.values())

    def gauge_values(self) -> Dict[str, float]:
        """Flat ``{"name{k=v,...}": value}`` map of every gauge sample."""
        out: Dict[str, float] = {}
        for name, family in sorted(self._families.items()):
            if family.kind != "gauge":
                continue
            for key, sample in sorted(family.samples.items()):
                rendered = ",".join(f"{k}={v}" for k, v in key)
                out[f"{name}{{{rendered}}}"] = sample.value
        return out

    # -- exporters -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dump of every sample and span."""
        counters, gauges, histograms = [], [], []
        for name, family in sorted(self._families.items()):
            for key, sample in sorted(family.samples.items()):
                entry = {"name": name, "labels": dict(sample.labels)}
                if family.kind == "counter":
                    entry["value"] = sample.value
                    counters.append(entry)
                elif family.kind == "gauge":
                    entry["value"] = sample.value
                    gauges.append(entry)
                else:
                    entry["buckets"] = [
                        [bound, count]
                        for bound, count in zip(sample.buckets, sample.counts)
                    ] + [["+Inf", sample.counts[-1]]]
                    entry["sum"] = sample.sum
                    entry["count"] = sample.count
                    histograms.append(entry)
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": [span.to_dict() for span in self.spans],
        }

    @classmethod
    def from_dict(cls, dump: dict) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` dump (round trip)."""
        from .tracing import Span

        registry = cls()
        for entry in dump.get("counters", ()):
            registry.counter(entry["name"], **entry.get("labels", {})).inc(
                int(entry["value"])
            )
        for entry in dump.get("gauges", ()):
            registry.gauge(entry["name"], **entry.get("labels", {})).set(
                entry["value"]
            )
        for entry in dump.get("histograms", ()):
            bounds = [
                float(bound)
                for bound, _ in entry.get("buckets", ())
                if bound != "+Inf"
            ]
            sample = registry.histogram(
                entry["name"],
                buckets=bounds or DEFAULT_BUCKETS,
                **entry.get("labels", {}),
            )
            for i, (_, count) in enumerate(entry.get("buckets", ())):
                sample.counts[i] = int(count)
            sample.sum = float(entry.get("sum", 0.0))
            sample.count = int(entry.get("count", 0))
        for entry in dump.get("spans", ()):
            registry.spans.append(Span.from_dict(entry))
        return registry

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name, family in sorted(self._families.items()):
            if family.help:
                lines.append(f"# HELP {name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, sample in sorted(family.samples.items()):
                if family.kind in ("counter", "gauge"):
                    lines.append(
                        f"{name}{_render_labels(sample.labels)} "
                        f"{_format_value(sample.value)}"
                    )
                    continue
                cumulative = 0
                for bound, count in zip(sample.buckets, sample.counts):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(sample.labels, le=_format_value(bound))} "
                        f"{cumulative}"
                    )
                cumulative += sample.counts[-1]
                lines.append(
                    f'{name}_bucket{_render_labels(sample.labels, le="+Inf")} '
                    f"{cumulative}"
                )
                lines.append(
                    f"{name}_sum{_render_labels(sample.labels)} "
                    f"{_format_value(sample.sum)}"
                )
                lines.append(
                    f"{name}_count{_render_labels(sample.labels)} {sample.count}"
                )
        return "\n".join(lines) + ("\n" if lines else "")


_NULL_COUNTER = _NullCounter({})
_NULL_GAUGE = _NullGauge({})
_NULL_HISTOGRAM = _NullHistogram({})
_NULL_REGISTRY = MetricsRegistry(enabled=False)


def null_registry() -> MetricsRegistry:
    """The shared disabled registry: every sample it hands out is a no-op.

    Point a pruner at it (``pruner.with_metrics(null_registry())``) to
    measure decision throughput with the instrumentation layer off.
    """
    return _NULL_REGISTRY


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_labels(labels: Dict[str, str], **extra: str) -> str:
    merged = dict(labels)
    merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    # Prometheus spells non-finite floats "+Inf"/"-Inf"/"NaN"; Python's
    # repr ("inf"/"nan") is not parseable exposition text.
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)
