"""Signature health monitoring: windows, drift detectors, event log.

Exercises :class:`~repro.obs.HealthStore` (rolling windows, EWMA
pruning-collapse detection with hysteresis, bloom fill-growth and
threshold detectors, signature eviction), :class:`~repro.obs.EventLog`
(bounded ring, severity validation, JSONL export, mirrored counters),
and their integration into :class:`~repro.serve.server.QueryService`
reports.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.obs import EventLog, HealthStore, MetricsRegistry
from repro.obs.health import MAX_SIGNATURES, MIN_SAMPLES, WINDOW


class FakeResult:
    """Minimal stand-in for a RunResult: pruning rate plus metrics."""

    def __init__(self, pruning_rate: float, metrics=None) -> None:
        """Capture the rate and (optional) metrics registry."""
        self.pruning_rate = pruning_rate
        self.metrics = metrics


def result_with_gauges(pruning_rate: float, **gauges: float) -> FakeResult:
    """A FakeResult whose registry carries labeled gauge samples."""
    registry = MetricsRegistry()
    for family, value in gauges.items():
        registry.gauge(family, "", pruner="p0").set(value)
    return FakeResult(pruning_rate, registry)


# ---------------------------------------------------------------------------
# event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_emit_assigns_monotone_seq(self):
        log = EventLog(capacity=8)
        first = log.emit("shed", "queue full", severity="warning")
        second = log.emit("fault", "boom", severity="error")
        assert (first.seq, second.seq) == (1, 2)
        assert len(log) == 2

    def test_capacity_evicts_oldest_and_counts(self):
        registry = MetricsRegistry()
        log = EventLog(capacity=3, registry=registry)
        for i in range(5):
            log.emit("tick", f"event {i}")
        assert len(log) == 3
        assert log.dropped == 2
        kept = [e["message"] for e in log.snapshot()]
        assert kept == ["event 2", "event 3", "event 4"]
        counters = registry.counter_values()
        assert counters["events_dropped_total{}"] == 2
        assert counters["events_total{kind=tick}"] == 5

    def test_invalid_severity_rejected(self):
        log = EventLog(capacity=4)
        with pytest.raises(ConfigurationError):
            log.emit("tick", "message", severity="fatal")

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            EventLog(capacity=0)

    def test_jsonl_export_round_trips(self, tmp_path):
        log = EventLog(capacity=8)
        log.emit("shed", "queue full", severity="warning", tenant="t1")
        path = str(tmp_path / "events.jsonl")
        assert log.to_jsonl(path) == 1
        lines = [json.loads(l) for l in open(path) if l.strip()]
        assert lines[0]["kind"] == "shed"
        assert lines[0]["labels"] == {"tenant": "t1"}
        assert lines[0]["severity"] == "warning"
        assert isinstance(lines[0]["seq"], int)


# ---------------------------------------------------------------------------
# health store mechanics
# ---------------------------------------------------------------------------


class TestHealthStoreMechanics:
    def test_windows_are_bounded(self):
        store = HealthStore()
        for i in range(WINDOW + 6):
            store.observe_run("q", FakeResult(0.5), latency_s=0.001 * i)
        snap = store.snapshot()[0]
        assert snap["runs"] == WINDOW + 6
        assert snap["window"] == WINDOW

    def test_latency_quantiles_reported_in_ms(self):
        store = HealthStore()
        for ms in (1.0, 2.0, 3.0, 4.0):
            store.observe_latency("q", ms / 1000.0)
        snap = store.snapshot()[0]
        assert snap["latency_p50_ms"] == pytest.approx(3.0)
        assert snap["latency_p99_ms"] == pytest.approx(4.0)

    def test_max_signatures_evicts_least_recent(self):
        store = HealthStore()
        store.observe_run("a", FakeResult(0.5), 0.001)
        store.observe_run("b", FakeResult(0.5), 0.001)
        for i in range(MAX_SIGNATURES - 2):
            store.observe_run(f"s{i}", FakeResult(0.5), 0.001)
        store.observe_run("a", FakeResult(0.5), 0.001)  # refresh "a"
        store.observe_run("c", FakeResult(0.5), 0.001)  # evicts "b"
        assert len(store) == MAX_SIGNATURES
        tracked = {s["signature"] for s in store.snapshot()}
        assert {"a", "c"} <= tracked and "b" not in tracked

    def test_gauge_signals_sampled_from_metrics(self):
        store = HealthStore()
        result = result_with_gauges(
            0.6, bloom_fill_ratio=0.4, bloom_false_positive_rate=0.02
        )
        store.observe_run("q", result, 0.001)
        snap = store.snapshot()[0]
        assert snap["bloom_fill"] == pytest.approx(0.4)
        assert snap["bloom_fpr"] == pytest.approx(0.02)

    def test_cache_hit_rate_derived_from_hit_miss_gauges(self):
        store = HealthStore()
        result = result_with_gauges(
            0.6, cache_matrix_hits=3.0, cache_matrix_misses=1.0
        )
        store.observe_run("q", result, 0.001)
        assert store.snapshot()[0]["cache_hit_rate"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# drift detectors
# ---------------------------------------------------------------------------


class TestDriftDetectors:
    def test_pruning_collapse_flags_and_emits_once(self):
        events = EventLog(capacity=32)
        registry = MetricsRegistry()
        store = HealthStore(registry=registry, events=events)
        for _ in range(8):
            store.observe_run("q", FakeResult(0.9), 0.001)
        assert events.snapshot() == []
        for _ in range(8):
            store.observe_run("q", FakeResult(0.05), 0.001)
        degradations = [
            e for e in events.snapshot() if e["kind"] == "degradation"
        ]
        # Hysteresis: the whole excursion emits exactly one event.
        assert len(degradations) == 1
        event = degradations[0]
        assert event["labels"]["detector"] == "pruning_collapse"
        assert event["labels"]["signature"] == "q"
        assert event["severity"] == "warning"
        assert store.degraded_signatures() == ["q"]
        counters = registry.counter_values()
        assert (
            counters["health_degradations_total{detector=pruning_collapse}"]
            == 1
        )

    def test_stable_workload_emits_no_degradations(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        rng = np.random.default_rng(7)
        for _ in range(32):
            store.observe_run(
                "q", FakeResult(0.8 + rng.uniform(-0.05, 0.05)), 0.001
            )
        assert events.snapshot() == []
        assert store.degraded_signatures() == []

    def test_never_pruning_signature_is_not_collapsing(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        for _ in range(32):
            store.observe_run("q", FakeResult(0.0), 0.001)
        assert events.snapshot() == []

    def test_recovery_rearms_collapse_detector(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        for _ in range(8):
            store.observe_run("q", FakeResult(0.9), 0.001)
        for _ in range(8):
            store.observe_run("q", FakeResult(0.05), 0.001)
        # Recover: fast EWMA climbs back above 0.9x the baseline.
        for _ in range(32):
            store.observe_run("q", FakeResult(0.9), 0.001)
        assert store.degraded_signatures() == []
        for _ in range(8):
            store.observe_run("q", FakeResult(0.05), 0.001)
        collapses = [
            e
            for e in events.snapshot()
            if e["labels"].get("detector") == "pruning_collapse"
        ]
        assert len(collapses) == 2  # one per excursion

    def test_bloom_fill_growth_detector(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        fills = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.92]
        for fill in fills:
            store.observe_run(
                "q", result_with_gauges(0.5, bloom_fill_ratio=fill), 0.001
            )
        growth = [
            e
            for e in events.snapshot()
            if e["labels"].get("detector") == "bloom_fill_growth"
        ]
        assert len(growth) == 1

    def test_bloom_fpr_threshold_detector(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        for fpr in [0.01] * (MIN_SAMPLES - 1) + [0.02, 0.15]:
            store.observe_run(
                "q",
                result_with_gauges(0.5, bloom_false_positive_rate=fpr),
                0.001,
            )
        alarms = [
            e
            for e in events.snapshot()
            if e["labels"].get("detector") == "bloom_fpr_alarm"
        ]
        assert len(alarms) == 1
        assert "crossed alarm level" in alarms[0]["message"]

    def test_cache_fill_threshold_uses_fill_ratio_not_occupancy(self):
        events = EventLog(capacity=32)
        store = HealthStore(events=events)
        # Absolute occupancy far above 1.0 must NOT trip the alarm while
        # the fill *ratio* stays low.
        for _ in range(MIN_SAMPLES):
            store.observe_run(
                "q",
                result_with_gauges(
                    0.5,
                    cache_matrix_occupancy=500.0,
                    cache_matrix_fill_ratio=0.2,
                ),
                0.001,
            )
        assert events.snapshot() == []
        store.observe_run(
            "q",
            result_with_gauges(
                0.5,
                cache_matrix_occupancy=2400.0,
                cache_matrix_fill_ratio=0.97,
            ),
            0.001,
        )
        alarms = [
            e
            for e in events.snapshot()
            if e["labels"].get("detector") == "cache_fill_alarm"
        ]
        assert len(alarms) == 1


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------


class TestServiceIntegration:
    def _tables(self, rows: int = 600) -> dict:
        from repro.engine.table import Table

        rng = np.random.default_rng(3)
        return {
            "products": Table(
                "products",
                {
                    "price": rng.integers(0, 400, rows),
                    "qty": rng.integers(0, 50, rows),
                },
            )
        }

    def test_report_carries_health_and_events(self):
        from repro.serve import QueryService

        with QueryService(self._tables(), workers=5) as service:
            service.query("SELECT COUNT(*) FROM products WHERE price > 250")
            service.update_tables(self._tables())
            report = service.report()
        assert report["summary"]["degraded_signatures"] == []
        signatures = report["health"]
        assert len(signatures) == 1
        assert signatures[0]["runs"] == 1
        assert signatures[0]["latency_p50_ms"] > 0
        kinds = {e["kind"] for e in report["events"]}
        assert "cache-invalidation" in kinds

    def test_serving_cache_hit_still_observes_latency(self):
        from repro.serve import QueryService

        with QueryService(self._tables(), workers=5) as service:
            sql = "SELECT COUNT(*) FROM products WHERE price > 250"
            service.query(sql)
            service.query(sql)  # served from the result cache
            report = service.report()
        snap = report["health"][0]
        assert snap["runs"] == 1  # one engine pass
        assert snap["latency_samples"] == 2  # but two latency observations

    def test_shed_requests_emit_events(self):
        from repro.serve import QueryService

        with QueryService(
            self._tables(), workers=5, max_queue=1, worker_threads=1
        ) as service:
            service.pause()
            sql = "SELECT COUNT(*) FROM products WHERE price > %d"
            handles = []
            shed = 0
            for i in range(6):
                try:
                    handles.append(service.submit(sql % (200 + i)))
                except Exception:
                    shed += 1
            service.resume()
            for handle in handles:
                handle.result()
            report = service.report()
        assert shed > 0
        shed_events = [e for e in report["events"] if e["kind"] == "shed"]
        assert shed_events and all(
            e["severity"] == "warning" for e in shed_events
        )
