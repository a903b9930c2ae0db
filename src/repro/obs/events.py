"""Structured event log: a bounded ring of operational events.

Serving-layer components emit discrete *events* — a shed request, a
health-detector degradation, an execution fault, a table-version cache
invalidation — that are neither counters (they carry a message and
labels) nor spans (they have no duration).  :class:`EventLog` unifies
them in one bounded ring buffer with a monotone sequence number, so the
most recent operational history is always available from
``QueryService.report()``, the ``repro health`` CLI, and a JSONL export,
without unbounded memory growth on long-running services.

Event volume is also mirrored into the owning registry as
``events_total{kind=...}`` / ``events_dropped_total`` counters, so the
Prometheus export carries the aggregate signal even after the ring has
evicted the individual records.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import ConfigurationError

#: Allowed event severities, mildest first.
SEVERITIES = ("info", "warning", "error", "critical")


@dataclass(frozen=True)
class Event:
    """One structured operational event.

    ``seq`` is a per-log monotone sequence number (gaps never occur; a
    missing low ``seq`` in a snapshot means the ring evicted it).
    ``unix_time`` is wall-clock ``time.time()`` — events are rare enough
    that wall time, not the monotonic clock, is the useful axis.
    """

    seq: int
    kind: str
    source: str
    severity: str
    message: str
    unix_time: float
    labels: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (one JSONL line of the event export)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "source": self.source,
            "severity": self.severity,
            "message": self.message,
            "unix_time": self.unix_time,
            "labels": dict(self.labels),
        }


class EventLog:
    """A bounded, thread-safe ring buffer of :class:`Event` records.

    Oldest events are evicted once ``capacity`` is exceeded; evictions
    are counted (``events_dropped_total``) rather than silently lost.
    All methods are safe to call from any thread.
    """

    def __init__(self, capacity: int = 512, registry=None) -> None:
        """Create a log holding at most ``capacity`` recent events.

        ``registry`` (a :class:`~repro.obs.registry.MetricsRegistry`),
        when given, receives ``events_total{kind=...}`` and
        ``events_dropped_total`` counter increments mirroring the log.
        """
        if capacity <= 0:
            raise ConfigurationError(
                f"event log capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._registry = registry
        self._lock = threading.Lock()
        self._events: deque = deque()
        self._seq = 0
        self._dropped = 0

    def emit(
        self,
        kind: str,
        message: str,
        source: str = "serve",
        severity: str = "info",
        **labels: object,
    ) -> Event:
        """Record an event and return it.

        ``kind`` is the machine axis ("shed", "degradation", "fault",
        "cache-invalidation", ...); ``message`` the human one.
        """
        if severity not in SEVERITIES:
            raise ConfigurationError(
                f"unknown event severity {severity!r}; expected one of {SEVERITIES}"
            )
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                kind=str(kind),
                source=str(source),
                severity=severity,
                message=str(message),
                unix_time=time.time(),
                labels={str(k): str(v) for k, v in labels.items()},
            )
            self._events.append(event)
            while len(self._events) > self.capacity:
                self._events.popleft()
                self._dropped += 1
                if self._registry is not None:
                    self._registry.counter(
                        "events_dropped_total",
                        "Events evicted from the bounded event log.",
                    ).inc()
        if self._registry is not None:
            self._registry.counter(
                "events_total", "Structured events emitted by kind.", kind=str(kind)
            ).inc()
        return event

    @property
    def dropped(self) -> int:
        """How many events the ring has evicted so far."""
        with self._lock:
            return self._dropped

    def snapshot(self) -> List[dict]:
        """The retained events as dicts, oldest first."""
        with self._lock:
            events = list(self._events)
        return [event.to_dict() for event in events]

    def since(self, seq: int) -> List[Event]:
        """Retained events with ``seq`` strictly greater than ``seq``.

        The polling primitive for consumers that keep a cursor (the
        remediation engine): each call hands back only what arrived
        since the last one.  Events the ring already evicted are simply
        absent — callers needing loss detection compare against
        :attr:`dropped`.
        """
        with self._lock:
            return [event for event in self._events if event.seq > seq]

    def to_jsonl(self, path: str) -> int:
        """Write the retained events to ``path`` as JSONL; return the count."""
        events = self.snapshot()
        with open(path, "w") as handle:
            for dump in events:
                handle.write(json.dumps(dump, sort_keys=True) + "\n")
        return len(events)

    def __len__(self) -> int:
        """How many events the ring currently retains."""
        with self._lock:
            return len(self._events)
