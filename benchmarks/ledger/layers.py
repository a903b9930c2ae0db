"""Per-layer metrics of the traced run: one formula per name.

``BENCHMARK.json`` owns the names, units and directions; this file owns
what each name means.  A formula reads the span aggregates, the probe
hooks' counts, deltas of the front door's public counters, and the
samples' own timelines.  It declares the probes it needs, so a probe the
program no longer offers turns its metrics into ``None`` instead of a
wrong zero.  A layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import importlib
import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

from probes import END, NAME, START, Tracer
from workloads import OPS

#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


def quantile(
    values: Sequence[float], q: float, beyond: int = SAMPLES_BEYOND
) -> Optional[float]:
    """Nearest-rank quantile; None below the sample floor.

    The median needs one sample; a higher percentile needs ``beyond``
    samples above it, or its value is an accident of the few largest.
    """
    above = len(values) - math.ceil(q * len(values) - 1e-9)
    if not values or (q > 0.5 and above < beyond):
        return None
    ordered = sorted(values)
    if q == 0.5 and len(ordered) % 2 == 0:
        mid = len(ordered) // 2
        return (ordered[mid - 1] + ordered[mid]) / 2.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def cache_stats() -> Dict[str, Optional[dict]]:
    """The program's module-level cache tallies (None where gone)."""
    out: Dict[str, Optional[dict]] = {}
    for key, module, name in (
        ("compile", "repro.switch.compiler", "compile_cache_stats"),
        ("fused", "repro.switch.fuse", "fused_cache_stats"),
        ("shard_plan", "repro.parallel.shard", "shard_plan_cache_stats"),
    ):
        try:
            out[key] = dict(getattr(importlib.import_module(module), name)())
        except (ImportError, AttributeError):
            out[key] = None
    return out


class Trace:
    """Everything a formula may read, gathered once after the window."""

    def __init__(
        self,
        tracer: Tracer,
        samples: Sequence,
        counters: Dict[str, float],
        caches_before: dict,
        caches_after: dict,
        extra: Dict[str, object],
    ) -> None:
        self.tracer = tracer
        self.samples = [s for s in samples if s.error is None]
        self.counters = counters
        self.extra = extra
        self._caches = (caches_before, caches_after)
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.total_by_name: Dict[str, float] = defaultdict(float)
        self.calls_by_name: Dict[str, int] = defaultdict(int)
        for record, own in zip(tracer.spans, tracer.self_times()):
            name = record[NAME]
            self.self_by_name[name] += own
            self.total_by_name[name] += record[END] - record[START]
            self.calls_by_name[name] += 1
        self.root_total = self.total_by_name["request"]
        self.root_self = self.self_by_name["request"]

    def _sum(self, table: dict, prefix: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    def self_s(self, *prefixes: str) -> float:
        return sum(self._sum(self.self_by_name, p) for p in prefixes)

    def total_s(self, *prefixes: str) -> float:
        return sum(self._sum(self.total_by_name, p) for p in prefixes)

    def calls(self, *prefixes: str) -> float:
        return float(sum(self._sum(self.calls_by_name, p) for p in prefixes))

    def count(self, key: str) -> float:
        return float(self.tracer.counts.get(key, 0.0))

    def counter(self, key: str) -> float:
        return float(self.counters.get(key, 0.0))

    def hit_frac(self, cache: str) -> Optional[float]:
        before, after = (c.get(cache) for c in self._caches)
        if before is None or after is None:
            return None
        hits = after["hits"] - before["hits"]
        return ratio(hits, hits + after["misses"] - before["misses"])

    def phase_ms(self, start: str, end: str, q: float, hits: Optional[bool] = None):
        """Quantile of a timeline phase over requests that had a ticket.

        ``hits`` keeps only result-cache hits (their queued, scheduled
        and executed stamps are one instant) or only misses."""
        values = []
        for sample in self.samples:
            t = sample.timeline
            if not t or "executed" not in t:
                continue
            if hits is not None and (t["queued"] == t["executed"]) != hits:
                continue
            values.append((t[end] - t[start]) * 1000.0)
        return quantile(values, q) if values else 0.0

    def update_window_ms(self) -> Optional[float]:
        windows = self.extra.get("updates", ())
        values = [
            s.latency_ms for s in self.samples
            if any(s.due <= end and begin <= s.done for begin, end, _ in windows)
        ]
        return quantile(values, 0.5) if values else 0.0


def _sketch_rate(t: Trace) -> float:
    return ratio(t.count("sketches.entries"), t.self_s("sketches."))


def _stream_rate(t: Trace) -> float:
    return ratio(t.count("engine.entries_streamed"), t.total_s("engine.run"))


#: name -> (probe prefixes the formula needs, formula).
FORMULAS: Dict[str, "tuple[tuple, Callable[[Trace], Optional[float]]]"] = {
    "sketches.busy_s": (("sketches.",), lambda t: t.self_s("sketches.")),
    "sketches.calls": (("sketches.",), lambda t: t.calls("sketches.")),
    "sketches.entries": (("sketches.",), lambda t: t.count("sketches.entries")),
    "sketches.entries_per_s": (("sketches.",), _sketch_rate),
    "core.busy_s": (("core.",), lambda t: t.self_s("core.")),
    "core.batch_calls": (
        ("core.process_batch", "core.probe_batch"),
        lambda t: t.calls("core.process_batch", "core.probe_batch"),
    ),
    "core.entries_in": (("core.process_batch",), lambda t: t.count("core.entries_in")),
    "core.entries_forwarded": (
        ("core.process_batch",), lambda t: t.count("core.entries_forwarded"),
    ),
    "core.pruned_frac": (
        ("core.process_batch",),
        lambda t: 1.0 - ratio(t.count("core.entries_forwarded"), t.count("core.entries_in"))
        if t.count("core.entries_in") else 0.0,
    ),
    "core.master_complete_s": (
        ("engine.run",), lambda t: t.count("core.master_complete_s"),
    ),
    "switch.plan_s": (
        ("switch.plan_fused", "switch.pack", "switch.check_fits"),
        lambda t: t.self_s("switch.plan_fused", "switch.pack", "switch.check_fits"),
    ),
    "switch.fused_run_s": (("switch.run_batch",), lambda t: t.self_s("switch.run_batch")),
    "switch.fused_fallbacks": (("engine.run",), lambda t: t.count("switch.fused_fallbacks")),
    "switch.compile_cache_hit_frac": ((), lambda t: t.hit_frac("compile")),
    "switch.fused_cache_hit_frac": ((), lambda t: t.hit_frac("fused")),
    "engine.run_s": (("engine.run",), lambda t: t.total_s("engine.run")),
    "engine.self_s": (("engine.run",), lambda t: t.self_s("engine.run")),
    "engine.self_frac": (
        ("engine.run",), lambda t: ratio(t.self_s("engine.run"), t.total_s("engine.run")),
    ),
    "engine.parse_s": (("engine.parse",), lambda t: t.self_s("engine.parse")),
    "engine.entries_streamed": (
        ("engine.run",), lambda t: t.count("engine.entries_streamed"),
    ),
    "engine.entries_forwarded": (
        ("engine.run",), lambda t: t.count("engine.entries_forwarded"),
    ),
    "engine.stream_entries_per_s": (("engine.run",), _stream_rate),
    "engine.kernel_gap_x": (
        ("engine.run", "sketches."), lambda t: ratio(_sketch_rate(t), _stream_rate(t)),
    ),
    "parallel.run_s": (("parallel.run_parallel",), lambda t: t.total_s("parallel.run_parallel")),
    "parallel.export_s": (("parallel.export",), lambda t: t.self_s("parallel.export")),
    "parallel.plan_s": (
        ("parallel.plan_hash_shards",), lambda t: t.self_s("parallel.plan_hash_shards"),
    ),
    "parallel.wait_s": (
        ("parallel.",), lambda t: t.self_s("parallel.run_parallel"),
    ),
    "parallel.shard_plan_hit_frac": ((), lambda t: t.hit_frac("shard_plan")),
    "parallel.resident_exports": ((), lambda t: t.counter("resident_exports")),
    "parallel.resident_reuses": ((), lambda t: t.counter("resident_reuses")),
    "parallel.pool_respawns": (("engine.run",), lambda t: t.count("parallel.pool_respawns")),
    "parallel.shard_timeouts": (("engine.run",), lambda t: t.count("parallel.shard_timeouts")),
    "serve.submit_s": (("serve.submit",), lambda t: t.self_s("serve.submit")),
    "serve.queue_wait_ms_p50": ((), lambda t: t.phase_ms("queued", "scheduled", 0.5, hits=False)),
    "serve.queue_wait_ms_p90": ((), lambda t: t.phase_ms("queued", "scheduled", 0.9, hits=False)),
    "serve.exec_ms_p50": ((), lambda t: t.phase_ms("scheduled", "executed", 0.5, hits=False)),
    "serve.exec_ms_p90": ((), lambda t: t.phase_ms("scheduled", "executed", 0.9, hits=False)),
    "serve.deliver_ms_p50": ((), lambda t: t.phase_ms("executed", "completed", 0.5, hits=False)),
    "serve.hit_latency_ms_p50": ((), lambda t: t.phase_ms("submitted", "completed", 0.5, hits=True)),
    "serve.cache_hit_frac": (
        (), lambda t: ratio(t.counter("cache_hits"), t.counter("cache_hits") + t.counter("cache_misses")),
    ),
    "serve.program_cache_hit_frac": (
        (), lambda t: ratio(t.counter("program_hits"), t.counter("program_hits") + t.counter("program_misses")),
    ),
    "serve.slots_packed": ((), lambda t: t.counter("slots_packed")),
    "serve.slots_solo": ((), lambda t: t.counter("slots_solo")),
    "serve.packed_queries": ((), lambda t: t.counter("packed_queries")),
    "serve.entries_streamed": ((), lambda t: t.counter("serve_streamed")),
    "serve.shed": ((), lambda t: float(t.extra["shed"])),
    "fleet.submit_s": (("fleet.submit",), lambda t: t.self_s("fleet.submit")),
    "fleet.route_s": (("fleet.route",), lambda t: t.self_s("fleet.route")),
    "fleet.routes_locality": ((), lambda t: t.counter("routes_locality")),
    "fleet.routes_spillover": ((), lambda t: t.counter("routes_spillover")),
    "fleet.routes_least_loaded": ((), lambda t: t.counter("routes_least_loaded")),
    "fleet.reroutes": ((), lambda t: t.counter("reroutes")),
    "fleet.update_s": (("fleet.rolling_update",), lambda t: t.total_s("fleet.rolling_update")),
    "fleet.update_window_ms_p50": ((), Trace.update_window_ms),
    "fleet.starvation_events": ((), lambda t: t.counter("starvation_events")),
    "obs.spans_recorded": ((), lambda t: t.counter("spans_recorded")),
    "obs.spans_dropped": ((), lambda t: t.counter("spans_dropped")),
    "obs.report_s": ((), lambda t: float(t.extra["report_s"])),
    "loadgen.sent": ((), lambda t: float(t.extra["sent"])),
    "bench.verify_s": ((), lambda t: float(t.extra["verify_s"])),
    "bench.probe_overhead_frac": ((), lambda t: float(t.extra["probe_overhead_frac"])),
    "bench.trace_coverage_frac": (
        (), lambda t: 1.0 - ratio(t.root_self, t.root_total),
    ),
}
for _op in OPS:
    FORMULAS[f"engine.run_s.{_op}"] = (
        ("engine.run",), lambda t, op=_op: t.count("engine.run_s." + op),
    )
    FORMULAS[f"engine.reference_s.{_op}"] = (
        (), lambda t, op=_op: float(t.extra["reference_s"].get(op, 0.0)),
    )
    FORMULAS[f"parallel.run_s.{_op}"] = (
        ("parallel.run_parallel",), lambda t, op=_op: t.count("parallel.run_s." + op),
    )


def layer_metrics(names: Sequence[str], trace: Trace) -> "tuple[dict, List[str]]":
    """``({name: value or None}, [why each None])`` for the named metrics."""
    values: Dict[str, Optional[float]] = {}
    missing: List[str] = []
    for name in names:
        needs, formula = FORMULAS[name]
        if not trace.tracer.has(*needs):
            values[name] = None
            missing.append(f"{name}: needs probe {', '.join(needs)}")
            continue
        values[name] = formula(trace)
        if values[name] is None:
            missing.append(f"{name}: too few samples, or its accessor is gone")
    return values, missing
