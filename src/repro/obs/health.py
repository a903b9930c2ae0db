"""Per-query-signature health: rolling windows and EWMA drift detection.

The adaptive runtime the roadmap points at needs *runtime* signals —
pruning ratio, bloom fill and false-positive rate, cache-matrix hit
rate, latency quantiles — observed live, per query signature
(:meth:`~repro.lang.query.Query.cache_key`), because the
value of switch pruning is a property of the data and workload, not of
the plan alone.  :class:`HealthStore` keeps bounded rolling windows of
those signals per signature and runs cheap drift detectors over them:

* **pruning-ratio collapse** — a fast EWMA of the pruning ratio falling
  well below its slow baseline means the data drifted away from what the
  switch configuration prunes well (the Cheetah paper's thresholds were
  sized for a distribution that no longer holds);
* **monotone bloom fill growth** — a dedup/distinct bloom filter whose
  fill ratio only ever grows toward saturation is on a path to a useless
  always-forward filter;
* **threshold crossings** — bloom FPR or cache-matrix occupancy past a
  configured alarm level.

Detections emit structured ``degradation`` events into an
:class:`~repro.obs.events.EventLog` (with hysteresis: one event per
excursion, a recovery resets the detector), which is exactly the signal
stream a future auto-resize/hot-swap loop consumes.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, List, Optional


#: Rolling-window length per signal, and how many signatures are kept.
WINDOW = 64
MAX_SIGNATURES = 256
#: Runs a signature needs before any detector gives a verdict.
MIN_SAMPLES = 8
#: Pruning collapse: fast EWMA below COLLAPSE_RATIO x a slow baseline of
#: at least COLLAPSE_FLOOR.
COLLAPSE_RATIO = 0.5
COLLAPSE_FLOOR = 0.05
#: Bloom saturation: FILL_GROWTH_RUN monotone fill increases ending at or
#: above FILL_ALARM.
FILL_ALARM = 0.9
FILL_GROWTH_RUN = 8
#: Threshold detectors: bloom false-positive rate and cache-matrix fill.
FPR_ALARM = 0.1
OCCUPANCY_ALARM = 0.95
#: EWMA weights of the fast and slow pruning-ratio trackers.
FAST_ALPHA = 0.3
SLOW_ALPHA = 0.05

#: Gauge families sampled from a run's metrics into the health windows.
_GAUGE_SIGNALS = {
    "bloom_fill": "bloom_fill_ratio",
    "bloom_fpr": "bloom_false_positive_rate",
    "cache_occupancy": "cache_matrix_occupancy",
    "cache_fill": "cache_matrix_fill_ratio",
}


def _quantile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted non-empty list."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _max_gauge(gauges: Dict[str, float], family: str) -> Optional[float]:
    """The largest sample of a gauge family, or None when absent.

    Gauge maps key samples as ``"name{k=v,...}"``; a family may have
    several labeled samples (one per pruner), and the most-loaded one is
    the health-relevant figure.
    """
    prefix = family + "{"
    values = [v for k, v in gauges.items() if k.startswith(prefix)]
    return max(values) if values else None


class SignatureHealth:
    """Rolling signal windows and detector state for one query signature."""

    def __init__(self, signature: str, window: int) -> None:
        """Create empty windows of length ``window`` for ``signature``."""
        self.signature = signature
        self.runs = 0
        #: Operator kind of the last observed run ("distinct", "topn",
        #: ...) — the remediation engine plans actions from it without
        #: having to re-parse the canonical signature string.
        self.op_kind: Optional[str] = None
        self.pruning_ratio: deque = deque(maxlen=window)
        self.latency_s: deque = deque(maxlen=window)
        self.signals: Dict[str, deque] = {
            name: deque(maxlen=window)
            for name in list(_GAUGE_SIGNALS) + ["cache_hit_rate"]
        }
        # EWMA pair for drift detection: the fast average tracks the
        # recent workload, the slow one the historical baseline.
        self.fast_pruning: Optional[float] = None
        self.slow_pruning: Optional[float] = None
        # Length of the current strictly-increasing bloom-fill run.
        self.fill_growth_run = 0
        # Hysteresis: which degradations are currently active, so each
        # excursion emits exactly one event.
        self.active: Dict[str, bool] = {}

    def snapshot(self) -> dict:
        """JSON-ready summary of this signature's current health."""
        latencies = sorted(self.latency_s)
        out = {
            "signature": self.signature,
            "runs": self.runs,
            "op_kind": self.op_kind,
            "window": len(self.pruning_ratio),
            "latency_samples": len(self.latency_s),
            "latency_p50_ms": _quantile(latencies, 0.50) * 1000.0,
            "latency_p99_ms": _quantile(latencies, 0.99) * 1000.0,
            "degraded": sorted(k for k, v in self.active.items() if v),
        }
        if self.pruning_ratio:
            out["pruning_ratio"] = self.pruning_ratio[-1]
            out["pruning_ratio_fast"] = self.fast_pruning
            out["pruning_ratio_slow"] = self.slow_pruning
        for name, window in self.signals.items():
            if window:
                out[name] = window[-1]
        return out


class HealthStore:
    """Bounded per-signature health windows with EWMA drift detectors.

    One store serves a whole :class:`~repro.serve.server.QueryService`;
    all methods are thread-safe.  Signature count is bounded
    (``MAX_SIGNATURES``, least-recently-observed evicted) so adversarial
    workloads cannot grow the store without bound.

    ``WINDOW`` bounds each rolling window; ``MIN_SAMPLES`` gates the
    detectors (no verdicts on thin evidence).  A pruning collapse fires
    when the fast EWMA drops below ``COLLAPSE_RATIO`` x the slow baseline
    while the baseline itself is at least ``COLLAPSE_FLOOR`` (queries
    that never pruned are not "collapsing").  ``FILL_GROWTH_RUN``
    monotone bloom-fill increases ending at or above ``FILL_ALARM`` flag
    saturation; ``FPR_ALARM`` (bloom FPR) and ``OCCUPANCY_ALARM``
    (cache-matrix occupied *fraction*) are plain threshold detectors.
    """

    def __init__(self, registry=None, events=None) -> None:
        self._registry = registry
        self._events = events
        self._lock = threading.Lock()
        # Insertion order is recency order (moved-to-end on observe).
        self._signatures: Dict[str, SignatureHealth] = {}

    # -- ingestion -----------------------------------------------------------

    def observe_run(self, signature: str, result, latency_s: float) -> None:
        """Record one completed engine run for ``signature``.

        ``result`` is a :class:`~repro.engine.cluster.RunResult` (or
        packed equivalent exposing ``pruning_rate`` and ``metrics``);
        pruning ratio and bloom/cache gauges are sampled from it, then the
        drift detectors run.
        """
        with self._lock:
            entry = self._touch_locked(signature)
            entry.runs += 1
            entry.op_kind = getattr(result, "op_kind", entry.op_kind)
            entry.latency_s.append(float(latency_s))
            pruning = float(result.pruning_rate)
            entry.pruning_ratio.append(pruning)
            if entry.fast_pruning is None:
                entry.fast_pruning = pruning
                entry.slow_pruning = pruning
            else:
                entry.fast_pruning += FAST_ALPHA * (pruning - entry.fast_pruning)
                entry.slow_pruning += SLOW_ALPHA * (pruning - entry.slow_pruning)
            metrics = getattr(result, "metrics", None)
            if metrics is not None:
                gauges = metrics.gauge_values()
                for signal, family in _GAUGE_SIGNALS.items():
                    value = _max_gauge(gauges, family)
                    if value is not None:
                        window = entry.signals[signal]
                        if (
                            signal == "bloom_fill"
                            and window
                            and value > window[-1]
                        ):
                            entry.fill_growth_run += 1
                        elif signal == "bloom_fill":
                            entry.fill_growth_run = 0
                        window.append(value)
                hits = _max_gauge(gauges, "cache_matrix_hits")
                misses = _max_gauge(gauges, "cache_matrix_misses")
                if hits is not None and misses is not None and hits + misses > 0:
                    entry.signals["cache_hit_rate"].append(hits / (hits + misses))
            self._detect_locked(entry)

    def observe_latency(self, signature: str, latency_s: float) -> None:
        """Record latency only (serving-cache hits run no engine pass)."""
        with self._lock:
            entry = self._touch_locked(signature)
            entry.latency_s.append(float(latency_s))

    def _touch_locked(self, signature: str) -> SignatureHealth:
        entry = self._signatures.pop(signature, None)
        if entry is None:
            entry = SignatureHealth(signature, WINDOW)
            while len(self._signatures) >= MAX_SIGNATURES:
                # Oldest-observed signature falls off first.
                evicted = next(iter(self._signatures))
                del self._signatures[evicted]
        self._signatures[signature] = entry
        return entry

    # -- detectors -----------------------------------------------------------

    def _detect_locked(self, entry: SignatureHealth) -> None:
        if entry.runs >= MIN_SAMPLES:
            self._detect_collapse_locked(entry)
            self._detect_fill_growth_locked(entry)
            self._detect_threshold_locked(
                entry,
                "bloom_fpr_alarm",
                entry.signals["bloom_fpr"],
                FPR_ALARM,
                "bloom false-positive rate",
            )
            # Alarm on the occupied *fraction* (0..1) — the raw
            # cache_occupancy window is an absolute cell count.
            self._detect_threshold_locked(
                entry,
                "cache_fill_alarm",
                entry.signals["cache_fill"],
                OCCUPANCY_ALARM,
                "cache-matrix fill ratio",
            )

    def _detect_collapse_locked(self, entry: SignatureHealth) -> None:
        fast, slow = entry.fast_pruning, entry.slow_pruning
        if fast is None or slow is None or slow < COLLAPSE_FLOOR:
            return
        collapsed = fast < COLLAPSE_RATIO * slow
        if collapsed and not entry.active.get("pruning_collapse"):
            entry.active["pruning_collapse"] = True
            self._emit_locked(
                entry,
                "pruning_collapse",
                "pruning ratio collapsed to "
                f"{fast:.3f} (baseline {slow:.3f})",
                severity="warning",
                fast=f"{fast:.4f}",
                slow=f"{slow:.4f}",
            )
        elif entry.active.get("pruning_collapse") and fast > 0.9 * slow:
            # Recovery: re-arm so the next excursion emits again.
            entry.active["pruning_collapse"] = False

    def _detect_fill_growth_locked(self, entry: SignatureHealth) -> None:
        window = entry.signals["bloom_fill"]
        saturating = (
            entry.fill_growth_run >= FILL_GROWTH_RUN
            and bool(window)
            and window[-1] >= FILL_ALARM
        )
        if saturating and not entry.active.get("bloom_fill_growth"):
            entry.active["bloom_fill_growth"] = True
            self._emit_locked(
                entry,
                "bloom_fill_growth",
                f"bloom fill grew {entry.fill_growth_run} runs in a row "
                f"to {window[-1]:.3f}",
                severity="warning",
                fill=f"{window[-1]:.4f}",
                run=str(entry.fill_growth_run),
            )
        elif entry.active.get("bloom_fill_growth") and (
            not window or window[-1] < FILL_ALARM
        ):
            entry.active["bloom_fill_growth"] = False

    def _detect_threshold_locked(
        self,
        entry: SignatureHealth,
        detector: str,
        window: deque,
        alarm: float,
        what: str,
    ) -> None:
        if not window:
            return
        value = window[-1]
        if value >= alarm and not entry.active.get(detector):
            entry.active[detector] = True
            self._emit_locked(
                entry,
                detector,
                f"{what} {value:.3f} crossed alarm level {alarm:.3f}",
                severity="warning",
                value=f"{value:.4f}",
                alarm=f"{alarm:.4f}",
            )
        elif entry.active.get(detector) and value < alarm:
            entry.active[detector] = False

    def _emit_locked(
        self,
        entry: SignatureHealth,
        detector: str,
        message: str,
        severity: str,
        **labels: object,
    ) -> None:
        if self._registry is not None:
            self._registry.counter(
                "health_degradations_total",
                "Degradation events emitted by the health detectors.",
                detector=detector,
            ).inc()
        if self._events is not None:
            self._events.emit(
                "degradation",
                message,
                source="health",
                severity=severity,
                detector=detector,
                signature=entry.signature,
                **labels,
            )

    # -- remediation-facing accessors ----------------------------------------

    def runs(self, signature: str) -> int:
        """How many engine runs the store has observed for ``signature``."""
        with self._lock:
            entry = self._signatures.get(signature)
            return entry.runs if entry is not None else 0

    def op_kind(self, signature: str) -> Optional[str]:
        """The operator kind of the signature's last run (None if unknown)."""
        with self._lock:
            entry = self._signatures.get(signature)
            return entry.op_kind if entry is not None else None

    def signal_values(self, signature: str, signal: str) -> List[float]:
        """A copy of one rolling window, oldest first.

        ``signal`` is ``"pruning_ratio"``, ``"latency_s"``, or one of the
        gauge windows (``"bloom_fill"``, ``"bloom_fpr"``,
        ``"cache_occupancy"``, ``"cache_fill"``, ``"cache_hit_rate"``).
        Unknown signatures (or signals never sampled) yield ``[]``.
        """
        with self._lock:
            entry = self._signatures.get(signature)
            if entry is None:
                return []
            if signal == "pruning_ratio":
                return list(entry.pruning_ratio)
            if signal == "latency_s":
                return list(entry.latency_s)
            window = entry.signals.get(signal)
            return list(window) if window is not None else []

    def recent_mean(
        self, signature: str, signal: str, samples: int
    ) -> Optional[float]:
        """Mean of the newest ``samples`` values of a window (None if empty).

        The remediation engine's canary primitive: called once just
        before an action (the degraded tail becomes the baseline) and
        once after the canary window has filled (the measured outcome).
        """
        values = self.signal_values(signature, signal)[-max(1, samples):]
        if not values:
            return None
        return sum(values) / len(values)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> List[dict]:
        """Per-signature health summaries, most recently observed first."""
        with self._lock:
            entries = list(self._signatures.values())
        return [entry.snapshot() for entry in reversed(entries)]

    def degraded_signatures(self) -> List[str]:
        """Signatures with at least one currently-active degradation."""
        with self._lock:
            return [
                entry.signature
                for entry in self._signatures.values()
                if any(entry.active.values())
            ]

    def __len__(self) -> int:
        """How many signatures the store currently tracks."""
        with self._lock:
            return len(self._signatures)
