"""Deterministic drifting workload for exercising the adaptive runtime.

The A/B scenario behind ``repro adapt`` and ``benchmarks/bench_adaptive``:
a DISTINCT query whose working set grows past the cache-matrix capacity
mid-stream.  Pre-drift the working set fits and nearly every repeat is
pruned; post-drift LRU thrashes and the pruning ratio collapses — the
exact failure the ``pruning_collapse`` detector watches for.  One
``sketch-resize`` action (``distinct_rows`` ×2) restores enough capacity
for the drifted working set, so an adaptive arm recovers its pruning
while a static arm stays collapsed for the rest of the session.

Everything is seeded: the same (seed, sizing) tuple produces the same
tables, the same detection tick, and the same action history.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..engine.cluster import Cluster, ClusterConfig
from ..engine.reference import run_reference
from ..engine.sql import parse
from ..engine.table import Table
from ..obs import EventLog, HealthStore, MetricsRegistry
from .actions import plan_action
from .engine import RemediationEngine
from .store import AdaptiveConfigStore

#: The drifting query; ``Stream.value`` carries the working set.
DRIFT_SQL = "SELECT DISTINCT value FROM Stream"


def drift_tables(
    pre_runs: int = 10,
    post_runs: int = 24,
    pre_working_set: int = 256,
    post_working_set: int = 4096,
    repeats: int = 4,
    seed: int = 0,
) -> List[Tuple[str, Table]]:
    """The per-run tables of the drift scenario, as ``(phase, table)``.

    Each run streams its working set ``repeats`` times in per-cycle
    shuffled order: the first cycle populates the DISTINCT cache, later
    cycles are prunable repeats — *if* the working set still fits.
    Post-drift values are drawn from a disjoint, larger range.
    """
    rng = random.Random(seed)
    runs: List[Tuple[str, Table]] = []
    phases = [("pre-drift", pre_working_set, 0)] * pre_runs
    phases += [("post-drift", post_working_set, 1_000_000)] * post_runs
    for phase, working_set, base in phases:
        values = list(range(base, base + working_set))
        stream: List[int] = []
        for _ in range(repeats):
            rng.shuffle(values)
            stream.extend(values)
        runs.append((phase, Table("Stream", {"value": np.array(stream)})))
    return runs


class ScenarioResult:
    """One arm's outcome: per-run records plus the live components."""

    def __init__(
        self,
        records: List[dict],
        registry: MetricsRegistry,
        events: EventLog,
        health: HealthStore,
        engine: Optional[RemediationEngine],
        store: Optional[AdaptiveConfigStore],
        signature: str,
    ) -> None:
        self.records = records
        self.registry = registry
        self.events = events
        self.health = health
        self.engine = engine
        self.store = store
        self.signature = signature

    def phase_pruning(self, phase: str, tail: Optional[int] = None) -> float:
        """Mean pruning ratio of a phase's runs (optionally the last ``tail``)."""
        values = [r["pruning"] for r in self.records if r["phase"] == phase]
        if tail is not None:
            values = values[-tail:]
        return sum(values) / len(values) if values else 0.0

    def phase_seconds(self, phase: str, tail: Optional[int] = None) -> float:
        """Total measured wall-clock of a phase's runs."""
        values = [r["seconds"] for r in self.records if r["phase"] == phase]
        if tail is not None:
            values = values[-tail:]
        return sum(values)

    def outcomes(self) -> dict:
        """Action-history outcome counts (applied/committed/...)."""
        counts: dict = {}
        if self.engine is not None:
            for record in self.engine.stats()["history"]:
                counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
        return counts

    @property
    def all_exact(self) -> bool:
        """True when every verified run matched the reference executor."""
        return all(r.get("exact", True) for r in self.records)


def run_scenario(
    runs: Iterable[Tuple[str, Table]],
    base_config: Optional[ClusterConfig] = None,
    workers: int = 4,
    adaptive: bool = True,
    verify: bool = False,
    planner: Optional[Callable] = None,
) -> ScenarioResult:
    """Drive one arm (static or adaptive) over the drift runs.

    The loop mirrors the serving layer without its threads: run the
    query, feed the health store, tick the remediation engine — so the
    detection → action → canary → verdict cycle is deterministic and
    synchronous.  ``planner`` overrides the action planner (the forced-
    regression arm injects one that proposes a harmful shrink);
    ``verify`` re-checks every run against the reference executor.
    """
    config = base_config or ClusterConfig(distinct_rows=512, distinct_cols=2)
    registry = MetricsRegistry()
    events = EventLog(registry=registry)
    health = HealthStore(registry=registry, events=events)
    query = parse(DRIFT_SQL)
    signature = query.cache_key()
    cluster = Cluster(workers, config=config)
    cluster.events = events
    engine = None
    store = None
    if adaptive:
        store = AdaptiveConfigStore(config)
        cluster.adaptive = store
        engine = RemediationEngine(
            health=health,
            store=store,
            events=events,
            registry=registry,
            planner=planner or plan_action,
            cooldown_s=0.0,
            canary_runs=3,
        )
    records: List[dict] = []
    for index, (phase, table) in enumerate(runs):
        tables = {table.name: table}
        start = time.perf_counter()
        result = cluster.run(query, tables)
        elapsed = time.perf_counter() - start
        health.observe_run(signature, result, elapsed)
        record = {
            "run": index,
            "phase": phase,
            "pruning": float(result.pruning_rate),
            "seconds": elapsed,
            "streamed": result.total_streamed,
            "forwarded": result.total_forwarded,
            "version": store.version(signature) if store is not None else 0,
        }
        if verify:
            record["exact"] = result.output == run_reference(query, tables)
        if engine is not None:
            engine.tick()
        records.append(record)
    return ScenarioResult(
        records, registry, events, health, engine, store, signature
    )
