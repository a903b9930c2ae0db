"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

One injector instance drives one run.  The cluster (or a transport)
threads every entry through it:

* **stream side** — :meth:`perturb_partition` applies the plan's link and
  worker faults to a partition's entry list as *net effects* (a dropped
  packet is retransmitted, so it arrives late; a corrupted packet is
  detected by checksum and retransmitted likewise; a crashed worker
  replays its partition from the start);
* **switch side** — :meth:`entries_until_event` sizes the next
  fault-free segment and :meth:`advance` moves the global entry cursor
  over it, returning the reboot/bitflip/exhaust events due at its start;
* **transport side** — :meth:`transport_fault` maps transmission indices
  to link faults for the discrete-event transport, and
  :meth:`corrupt_frame` flips a real bit in an encoded frame.

Every injection and degradation is counted in the injector's metrics
registry (``faults_injected_total``, ``degradation_events_total``) and
appended to a structured log surfaced by :meth:`summary`.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Dict, List, Optional, Sequence

from ..obs import MetricsRegistry
from .plan import FaultEvent, FaultPlan, LINK_FAULTS, SWITCH_FAULTS, WORKER_FAULTS


class FaultInjector:
    """Executes one fault plan against one run, recording everything."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.rng = random.Random(plan.seed ^ 0x5EEDFA17)
        self.metrics = MetricsRegistry()
        self.log: List[dict] = []
        self.degradations: List[dict] = []
        self._cursor = 0
        self._switch_events = deque(
            sorted(e for e in plan.events if e.kind in SWITCH_FAULTS)
        )
        self._link_events: Dict[int, FaultEvent] = {
            e.at: e for e in plan.events if e.kind in LINK_FAULTS
        }
        self._crash_events: List[FaultEvent] = sorted(
            e for e in plan.events if e.kind in WORKER_FAULTS
        )

    # -- stream side (cluster) ----------------------------------------------

    def perturb_partition(
        self, entries: Sequence, base: int, worker: int, phase: str
    ) -> List:
        """Apply link and worker faults to one partition's entry stream.

        ``entries`` occupy global positions ``base .. base+len-1``.  The
        returned list is the *net effect* at the switch after the
        reliability layer has done its job: drops and detected
        corruptions arrive late (retransmitted, moved to the end of the
        partition), duplicates arrive twice, reorders swap neighbours,
        and a crashed worker's partition is replayed after its prefix.
        Duplicate/replayed entries are exactly why the master dedupes by
        row id — superset-safety keeps the output unchanged.
        """
        out = list(entries)
        if not out:
            return out
        span = range(base, base + len(out))
        for event in [e for e in self._crash_events if e.at in span]:
            self._crash_events.remove(event)
            cut = min(event.at - base, len(out))
            out = out[:cut] + list(entries)
            self.record(event.kind, event.at, worker=worker, phase=phase)
        for at in sorted(k for k in self._link_events if k in span):
            event = self._link_events.pop(at)
            position = min(at - base, len(out) - 1)
            if event.kind == "drop" or event.kind == "corrupt":
                out.append(out.pop(position))
                if event.kind == "corrupt":
                    self.metrics.counter(
                        "checksum_detected_corruptions_total",
                        "Corrupted packets caught by the frame CRC.",
                    ).inc()
            elif event.kind == "duplicate":
                out.insert(position + 1, out[position])
            elif event.kind == "reorder" and position + 1 < len(out):
                out[position], out[position + 1] = out[position + 1], out[position]
            self.record(event.kind, at, worker=worker, phase=phase)
        return out

    # -- switch side ---------------------------------------------------------

    def advance(self, count: int = 1) -> List[FaultEvent]:
        """Advance the global entry cursor; return switch events now due.

        Called once per fault-free segment: with ``count`` no larger than
        :meth:`entries_until_event`, every returned reboot/bitflip/exhaust
        event is due *before the segment's first entry* — an event at
        global position ``k`` fires after entry ``k - 1`` and before
        entry ``k``, exactly as a per-entry ``advance(1)`` loop would
        fire it.  The caller applies the events, then streams the
        segment's entries as one batch.
        """
        self._cursor += count
        due: List[FaultEvent] = []
        while self._switch_events and self._switch_events[0].at < self._cursor:
            due.append(self._switch_events.popleft())
        return due

    def entries_until_event(self) -> Optional[int]:
        """Entries the next :meth:`advance` may cover in one segment.

        The distance from the cursor to the first switch event scheduled
        strictly *after* it (events at or before the cursor fire at the
        segment's start); ``None`` when no later event remains.
        """
        for event in self._switch_events:
            if event.at > self._cursor:
                return event.at - self._cursor
        return None

    @property
    def cursor(self) -> int:
        """Entries the switch has processed so far (global, all phases)."""
        return self._cursor

    # -- transport side ------------------------------------------------------

    def transport_fault(self, index: int, link: str = "uplink") -> Optional[str]:
        """The link-fault verdict for transmission ``index`` on ``link``.

        Returns the fault kind (``"drop"``, ``"corrupt"``, ``"reorder"``,
        ``"duplicate"``) or ``None``.  Events with an explicit ``target``
        only fire on the matching link; untargeted events fire on the
        uplink (the worker→switch hop carries every transmission).
        """
        event = self._link_events.get(index)
        if event is None:
            return None
        wanted = event.target if event.target is not None else "uplink"
        if wanted != link:
            return None
        del self._link_events[index]
        self.record(event.kind, index, link=link)
        return event.kind

    def corrupt_frame(self, frame: bytes) -> bytes:
        """Flip one deterministic-random bit of an encoded frame."""
        bit = self.rng.randrange(len(frame) * 8)
        corrupted = bytearray(frame)
        corrupted[bit >> 3] ^= 1 << (bit & 7)
        return bytes(corrupted)

    # -- recording -----------------------------------------------------------

    def record(self, kind: str, at: int, **detail: object) -> None:
        """Count one injected fault and append it to the structured log."""
        self.metrics.counter(
            "faults_injected_total", "Faults the injector fired.", kind=kind
        ).inc()
        entry = {"kind": kind, "at": at}
        entry.update(detail)
        self.log.append(entry)

    def record_degradation(
        self, op_kind: str, action: str, at: int, reason: str
    ) -> None:
        """Count one graceful-degradation decision (reboot policy etc.)."""
        self.metrics.counter(
            "degradation_events_total",
            "Graceful-degradation actions the cluster took.",
            op=op_kind,
            action=action,
        ).inc()
        self.degradations.append(
            {"op": op_kind, "action": action, "at": at, "reason": reason}
        )

    @property
    def injected(self) -> int:
        """Total faults fired so far."""
        return len(self.log)

    def summary(self) -> dict:
        """JSON-ready account of the run's faults and degradations.

        Deterministic for a fixed ``(plan, seed)`` — the shape the
        ``repro chaos`` CLI prints and CI archives as an artifact.
        """
        by_kind: Dict[str, int] = {}
        for entry in self.log:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        return {
            "seed": self.plan.seed,
            "planned": len(self.plan),
            "injected": self.injected,
            "by_kind": dict(sorted(by_kind.items())),
            "events": list(self.log),
            "degradations": list(self.degradations),
        }
