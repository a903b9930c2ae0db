"""Fault schedules: what goes wrong, where, and when.

A :class:`FaultPlan` is an immutable schedule of :class:`FaultEvent`
records positioned on the run's global *entry index* — the count of
entries the switch has processed across all phases (for transport-level
plans, the transmission index).  Plans are either built explicitly, or
derived from a seed with :meth:`FaultPlan.random` so the chaos property
suite can sweep schedules reproducibly.

The eight fault kinds map onto the system layers:

==============  =======================================================
kind            effect
==============  =======================================================
``drop``        a packet is lost on a link and must be retransmitted
``corrupt``     a packet's bits flip in transit (checksum detects it)
``reorder``     adjacent packets swap arrival order
``duplicate``   a packet arrives twice
``reboot``      the switch restarts; all dataplane state is lost
``bitflip``     one bit of switch register/sketch state flips
``exhaust``     a pipeline stage fails; its programs stop executing
``crash``       a worker dies and replays its partition from the start
==============  =======================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError

#: Every fault kind, in documentation order.
FAULT_KINDS: Tuple[str, ...] = (
    "drop",
    "corrupt",
    "reorder",
    "duplicate",
    "reboot",
    "bitflip",
    "exhaust",
    "crash",
)

#: Kinds that perturb packets on a link.
LINK_FAULTS = frozenset({"drop", "corrupt", "reorder", "duplicate"})
#: Kinds that hit the switch itself.
SWITCH_FAULTS = frozenset({"reboot", "bitflip", "exhaust"})
#: Kinds that hit a worker.
WORKER_FAULTS = frozenset({"crash"})


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault: ``kind`` fires at global entry index ``at``.

    ``target`` optionally narrows the blast radius — a link name
    (``"uplink"``/``"downlink"``) for link faults, a stage index for
    ``exhaust``; ``None`` lets the injector pick deterministically.
    """

    at: int
    kind: str
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.at < 0:
            raise ConfigurationError(f"fault position must be >= 0, got {self.at}")

    def describe(self) -> str:
        """One-line rendering for reports."""
        suffix = f" target={self.target}" if self.target is not None else ""
        return f"at={self.at} kind={self.kind}{suffix}"


class FaultPlan:
    """An immutable, ordered schedule of fault events.

    Events are sorted by position; the ``seed`` recorded with the plan
    also seeds the injector's own RNG (which bit to flip, which cell to
    garble), so one ``(plan, seed)`` pair fully determines a chaos run.
    """

    def __init__(self, events: Iterable[FaultEvent], seed: int = 0) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(sorted(events))
        self.seed = seed

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, events={len(self.events)})"

    @classmethod
    def random(
        cls,
        seed: int,
        length: int,
        kinds: Sequence[str] = FAULT_KINDS,
        rate: float = 0.005,
        count: Optional[int] = None,
        window: Tuple[float, float] = (0.0, 1.0),
    ) -> "FaultPlan":
        """Derive a schedule from a seed for a run of ``length`` entries.

        ``count`` fixes the number of events; otherwise ``rate`` scales
        with ``length`` (capped at 64 events).  ``window`` confines
        positions to a fraction of the run — e.g. ``(0.6, 0.95)`` lands
        every event in a JOIN's probe phase.
        """
        if length <= 0:
            raise ConfigurationError(f"plan length must be positive, got {length}")
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
        lo = int(length * window[0])
        hi = max(lo + 1, int(length * window[1]))
        if count is None:
            count = max(1, min(64, round(length * rate)))
        count = min(count, hi - lo)
        rng = random.Random(seed)
        positions = sorted(rng.sample(range(lo, hi), count))
        events = [
            FaultEvent(at=position, kind=rng.choice(list(kinds)))
            for position in positions
        ]
        return cls(events, seed=seed)

    def to_dict(self) -> dict:
        """JSON-ready form (reports, CLI ``--json``)."""
        return {
            "seed": self.seed,
            "events": [
                {"at": e.at, "kind": e.kind, "target": e.target} for e in self.events
            ],
        }

    def describe(self) -> List[str]:
        """One line per scheduled event."""
        return [event.describe() for event in self.events]


@dataclass(frozen=True)
class ChaosScenario:
    """A named, replayable chaos experiment for the ``repro chaos`` CLI.

    ``query`` names one of :func:`repro.workloads.bigdata.benchmark_queries`;
    the plan is derived from the run's entry count at replay time, so the
    same ``(scenario, seed, rows)`` triple always produces the same report.
    """

    name: str
    description: str
    query: str
    kinds: Tuple[str, ...]
    rate: float = 0.005
    count: Optional[int] = None
    window: Tuple[float, float] = (0.0, 1.0)

    def build_plan(self, seed: int, length: int) -> FaultPlan:
        """Instantiate the scenario's schedule for a run of ``length`` entries."""
        return FaultPlan.random(
            seed,
            length,
            kinds=self.kinds,
            rate=self.rate,
            count=self.count,
            window=self.window,
        )


#: The named scenarios ``repro chaos --scenario`` replays.
SCENARIOS: Dict[str, ChaosScenario] = {
    s.name: s
    for s in (
        ChaosScenario(
            name="mixed",
            description="every fault kind against a DISTINCT scan",
            query="Q2-distinct",
            kinds=FAULT_KINDS,
            count=8,
        ),
        ChaosScenario(
            name="packet-chaos",
            description="drop/corrupt/reorder/duplicate against a filtered COUNT",
            query="Q1-filter",
            kinds=("drop", "corrupt", "reorder", "duplicate"),
            rate=0.01,
        ),
        ChaosScenario(
            name="switch-reboot",
            description="mid-stream switch reboots during DISTINCT (reboot-safe)",
            query="Q2-distinct",
            kinds=("reboot",),
            count=2,
        ),
        ChaosScenario(
            name="join-reboot",
            description="switch reboot during the JOIN probe pass (reboot-unsafe)",
            query="Q6-join",
            kinds=("reboot",),
            count=1,
            window=(0.6, 0.95),
        ),
        ChaosScenario(
            name="having-chaos",
            description="reboots, bit flips and worker crashes against HAVING",
            query="Q7-having",
            kinds=("reboot", "bitflip", "crash"),
            count=3,
        ),
        ChaosScenario(
            name="worker-crash",
            description="worker crash-and-replay during GROUP BY",
            query="Q5-groupby",
            kinds=("crash",),
            count=2,
        ),
        ChaosScenario(
            name="stage-exhaustion",
            description="a pipeline stage fails open during TOP N",
            query="Q4-topn",
            kinds=("exhaust",),
            count=1,
        ),
        ChaosScenario(
            name="bitflip",
            description="register bit flips during SKYLINE (restart-unsafe)",
            query="Q3-skyline",
            kinds=("bitflip",),
            count=2,
        ),
    )
}


def scenario(name: str) -> ChaosScenario:
    """Look up a named scenario; raises ``ConfigurationError`` for unknowns."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos scenario {name!r}; choose from {sorted(SCENARIOS)}"
        ) from None
