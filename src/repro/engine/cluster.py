"""The Cheetah cluster runner: workers → switch pruner → master.

:class:`Cluster` executes a :class:`~repro.engine.plan.Query` the way the
paper's testbed does: the table is partitioned across workers, each
worker streams only the queried columns (per entry or in column
batches), the switch pruner decides PRUNE/FORWARD per entry, and the
master completes the query on the survivors.  The runner returns both
the output (asserted equal to
:func:`~repro.engine.reference.run_reference`) and the traffic volumes
each phase moved, which the cost model turns into completion times.

One driver, :meth:`Cluster._execute`, runs every operator: what differs
per operator — JOIN's build + probe, HAVING's partial refetch, SKYLINE's
FIN drain — is a row of :mod:`repro.engine.operators`.
"""

from __future__ import annotations

from contextlib import ExitStack, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.base import PassthroughPruner, Pruner
from ..core.filtering import FilterPruner
from ..errors import ConfigurationError, PlanError, SharedMemoryUnavailable
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..obs import MetricsRegistry, ratio
from ..switch.resources import ResourceModel, TOFINO
from .dataplane import DEFAULT_BATCH
from .operators import SINGLE_PASS, Chaos, Shard, plan_for
from .plan import Query
from .reference import TableMap, run_reference
from .table import split_bounds


@dataclass
class PhaseVolume:
    """Traffic of one execution phase."""

    name: str
    streamed: int = 0
    forwarded: int = 0

    @property
    def pruned(self) -> int:
        """Entries the switch removed in this phase."""
        return self.streamed - self.forwarded


@dataclass
class RunResult:
    """Outcome of one cluster execution."""

    query: str
    output: object
    phases: List[PhaseVolume]
    used_cheetah: bool
    workers: int
    op_kind: str = "filter"
    #: Per-run metrics registry (phase spans, per-worker volumes, and the
    #: absorbed pruner counters/gauges); None for hand-built results.
    metrics: Optional[MetricsRegistry] = None
    #: Fault account (plan size, injected events, degradations) when the
    #: run executed under a :class:`~repro.faults.plan.FaultPlan`; None
    #: for fault-free runs.
    faults: Optional[dict] = None

    @property
    def total_streamed(self) -> int:
        """Entries sent by workers across all phases."""
        return sum(phase.streamed for phase in self.phases)

    @property
    def total_forwarded(self) -> int:
        """Entries that reached the master across all phases."""
        return sum(phase.forwarded for phase in self.phases)

    @property
    def pruning_rate(self) -> float:
        """Overall fraction of streamed entries pruned."""
        return ratio(self.total_streamed - self.total_forwarded, self.total_streamed)

    def report(self) -> dict:
        """Structured, JSON-ready run report.

        Joins each phase's traffic volumes with its wall-time (spans are
        recorded under the phase's name) and embeds the full metrics dump
        — the shape the CLI's ``--metrics-out`` writes and the ``metrics``
        subcommand pretty-prints.
        """
        seconds_by_name: Dict[str, float] = {}
        if self.metrics is not None:
            for span in self.metrics.spans:
                seconds_by_name[span.name] = (
                    seconds_by_name.get(span.name, 0.0) + span.seconds
                )
        return {
            "query": self.query,
            "op_kind": self.op_kind,
            "used_cheetah": self.used_cheetah,
            "workers": self.workers,
            "totals": {
                "streamed": self.total_streamed,
                "forwarded": self.total_forwarded,
                "pruned": self.total_streamed - self.total_forwarded,
                "pruning_rate": self.pruning_rate,
            },
            "phases": [
                {
                    "name": phase.name,
                    "streamed": phase.streamed,
                    "forwarded": phase.forwarded,
                    "pruned": phase.pruned,
                    "seconds": seconds_by_name.get(phase.name),
                }
                for phase in self.phases
            ],
            "metrics": self.metrics.to_dict() if self.metrics is not None else {},
            "faults": self.faults,
            "compile_cache": _compile_cache_report(),
        }


@dataclass
class PackedRunResult:
    """Outcome of a §6 packed multi-query pass."""

    results: List[RunResult]
    phase: PhaseVolume
    #: Registry of the shared streaming pass (per-query pruner counters
    #: live on each result's own ``metrics`` — per-query isolation).
    metrics: Optional[MetricsRegistry] = None

    @property
    def total_streamed(self) -> int:
        """Entries streamed once for all packed queries."""
        return self.phase.streamed

    @property
    def total_forwarded(self) -> int:
        """Entries any packed query forwarded."""
        return self.phase.forwarded

    @property
    def pruning_rate(self) -> float:
        """Fraction of the shared stream pruned for every query."""
        return ratio(self.phase.streamed - self.phase.forwarded, self.phase.streamed)

    def report(self) -> dict:
        """Structured, JSON-ready packed-run report.

        Same top-level shape as :meth:`RunResult.report` (so the CLI's
        ``metrics`` subcommand and ``scripts/check_schema.py``
        accept it unchanged), with ``op_kind="packed"`` and one extra
        ``queries`` list holding each packed query's own full report —
        the per-query isolation :meth:`Cluster.run_packed` maintains.
        The top-level ``metrics`` dump combines the shared streaming
        pass's registry with every per-query registry folded in under a
        ``packed_query`` index label.
        """
        combined = MetricsRegistry()
        if self.metrics is not None:
            combined.absorb(self.metrics)
        for index, result in enumerate(self.results):
            if result.metrics is not None:
                combined.absorb(result.metrics, packed_query=index)
        seconds_by_name: Dict[str, float] = {}
        for span in combined.spans:
            seconds_by_name[span.name] = (
                seconds_by_name.get(span.name, 0.0) + span.seconds
            )
        return {
            "query": " ; ".join(result.query for result in self.results),
            "op_kind": "packed",
            "used_cheetah": True,
            "workers": self.results[0].workers if self.results else 0,
            "totals": {
                "streamed": self.total_streamed,
                "forwarded": self.total_forwarded,
                "pruned": self.total_streamed - self.total_forwarded,
                "pruning_rate": self.pruning_rate,
            },
            "phases": [
                {
                    "name": self.phase.name,
                    "streamed": self.phase.streamed,
                    "forwarded": self.phase.forwarded,
                    "pruned": self.phase.pruned,
                    "seconds": seconds_by_name.get(self.phase.name),
                }
            ],
            "metrics": combined.to_dict(),
            "faults": None,
            "compile_cache": _compile_cache_report(),
            "queries": [result.report() for result in self.results],
        }


def _compile_cache_report() -> dict:
    """Hit/miss totals of the switch compiler's memoization layer.

    Surfaced on every run report so callers see cache effectiveness
    without reaching for the module-level helpers: ``fit_pack`` is the
    fit-check/pack memo (:func:`~repro.switch.compiler.compile_cache_stats`).
    """
    from ..switch.compiler import compile_cache_stats

    return {"fit_pack": compile_cache_stats()}


@dataclass
class ClusterConfig:
    """Per-operator pruner parameters (paper defaults from Table 2 / §8).

    ``batch_size`` is the row count of the column slices the batch kernels
    take; decisions, outputs and phase volumes do not depend on it.
    ``None`` (the default) means one-entry packets for a solo single-pass
    run and ``dataplane.DEFAULT_BATCH`` for everything else (JOIN, HAVING,
    SKYLINE, packed slots, pool shards, chaos runs).

    ``parallelism`` > 1 executes Cheetah runs across that many OS
    processes (:mod:`repro.parallel`), each owning one pruner shard laid
    out by the operator (multiswitch hash partitioning for keyed stateful
    operators, contiguous replicas otherwise).  A run
    is one in-process shard instead when a fault plan is active, the run
    is a baseline (``use_cheetah=False``), or the fan-out cannot run
    (no shared memory, pool died twice: ``parallel_fallback_total``).

    Only the sizes adaptive remediation and the benches change are
    fields; every other Table 2 size is the pruner constructor's
    default.  Every pruner is validated against ``model`` before it runs.
    """

    batch_size: Optional[int] = None
    #: Wall-clock seconds one parallel shard task may run before the
    #: runner retries it (once on the pool, then sequentially in the
    #: parent).  ``None`` (the default) disables shard timeouts.
    shard_timeout: Optional[float] = None
    parallelism: int = 1
    distinct_rows: int = 4096
    distinct_cols: int = 2
    distinct_policy: str = "lru"
    distinct_fingerprint: bool = False
    topn_randomized: bool = True
    topn_rows: int = 4096
    groupby_rows: int = 4096
    join_memory_bits: int = 4 * 1024 * 1024 * 8
    join_variant: str = "bf"
    having_width: int = 1024
    skyline_score: str = "aph"
    worker_assist_filters: bool = False
    seed: int = 0
    #: Optional fault schedule: when set, Cheetah runs execute on the
    #: chaos path (batch kernels between switch events, graceful
    #: degradation; ``batch_size`` never changes a chaos run's result).
    #: Baseline (``use_cheetah=False``) runs ignore it.
    fault_plan: Optional[FaultPlan] = None
    #: What a reboot-unsafe JOIN does when its Bloom filters are lost
    #: mid-probe: ``"rebuild"`` re-streams the build pass,
    #: ``"passthrough"`` forwards the remaining probes unfiltered, and
    #: ``"auto"`` picks by the filters' fill ratio (a nearly-full filter
    #: barely prunes, so rebuilding it is wasted traffic).
    degrade_policy: str = "auto"
    #: Sample every Nth single-pass batch as a ``fused-batch`` trace
    #: span (0, the default, disables per-batch spans entirely).  Only
    #: meaningful when a request :class:`~repro.obs.TraceContext` is
    #: active; keep the stride large — per-batch spans are the most
    #: voluminous signal the tracer can produce.
    fused_trace_sample: int = 0
    model: ResourceModel = TOFINO

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size <= 0:
            raise ConfigurationError(
                f"batch_size must be positive or None, got {self.batch_size}"
            )
        if self.fused_trace_sample < 0:
            raise ConfigurationError(
                f"fused_trace_sample must be >= 0, got {self.fused_trace_sample}"
            )
        if self.degrade_policy not in ("auto", "rebuild", "passthrough"):
            raise ConfigurationError(
                f"degrade_policy must be 'auto', 'rebuild' or 'passthrough', "
                f"got {self.degrade_policy!r}"
            )
        if self.parallelism < 1:
            raise ConfigurationError(
                f"parallelism must be >= 1, got {self.parallelism}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ConfigurationError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )


class Cluster:
    """A rack of workers behind one Cheetah switch, plus a master."""

    def __init__(self, workers: int = 5, config: Optional[ClusterConfig] = None) -> None:
        if workers <= 0:
            raise PlanError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.config = config or ClusterConfig()
        #: Optional :class:`~repro.adapt.store.AdaptiveConfigStore`: when
        #: attached, runs consult it for per-signature configuration
        #: overrides, pinned for the duration of each pass (the batch-
        #: boundary fence remediation hot-swaps rely on).
        self.adaptive = None
        #: Optional :class:`~repro.obs.events.EventLog` for engine-level
        #: structured events (shard timeouts, pool respawns); the serving
        #: layer points this at its own log.
        self.events = None

    # -- public API ----------------------------------------------------------

    def run(
        self, query: Query, tables: TableMap, use_cheetah: bool = True
    ) -> RunResult:
        """Execute ``query`` with or without switch pruning.

        Without Cheetah the same streaming path runs with a passthrough
        pruner, so volumes reflect the software baseline's data movement.

        When :attr:`ClusterConfig.fault_plan` is set, the Cheetah path
        runs under a :class:`~repro.faults.injector.FaultInjector`: link
        and worker faults perturb the entry streams, switch faults fire
        against the pruner as the global entry cursor crosses them, and
        every graceful-degradation decision is recorded on the result's
        ``faults`` report.

        With an :attr:`adaptive` store attached, the signature's active
        configuration override (if any) is leased for the whole pass:
        a remediation hot-swap staged mid-run only takes effect at the
        next pass — configurations never change under a streaming pruner.
        """
        if use_cheetah and self.adaptive is not None:
            with self.adaptive.lease(query.cache_key()) as override:
                if override is not None and override is not self.config:
                    return self._with_config(override)._run_resolved(
                        query, tables, use_cheetah
                    )
                return self._run_resolved(query, tables, use_cheetah)
        return self._run_resolved(query, tables, use_cheetah)

    def _with_config(self, config: ClusterConfig) -> "Cluster":
        """A lightweight clone running one pass under an override config."""
        clone = Cluster(self.workers, config)
        clone.events = self.events
        return clone

    def _run_resolved(
        self, query: Query, tables: TableMap, use_cheetah: bool = True
    ) -> RunResult:
        config = self.config
        if use_cheetah and config.parallelism > 1 and config.fault_plan is None:
            from ..parallel.runner import run_parallel

            return run_parallel(self, query, tables)
        return self._execute([query], tables, use_cheetah)[0][0]

    def run_verified(self, query: Query, tables: TableMap) -> RunResult:
        """Run with Cheetah and assert the pruning contract against reference."""
        result = self.run(query, tables, use_cheetah=True)
        expected = run_reference(query, tables)
        if result.output != expected:
            raise AssertionError(
                f"pruning contract violated for {query.describe()}: "
                f"got {result.output!r}, expected {expected!r}"
            )
        return result

    def run_packed(
        self, queries: Sequence[Query], tables: TableMap
    ) -> "PackedRunResult":
        """Run several single-pass queries over ONE streaming pass (§6).

        All queries must scan the same table with single-pass operators
        (filter/COUNT, DISTINCT, TOP N, GROUP BY) and no separate WHERE.
        The switch evaluates every query's pruner on each entry, yielding
        one prune/no-prune bit per query; the packet is forwarded if any
        query needs it, and the master completes each query from the
        entries forwarded *for it*.  The combined footprint is validated
        with the §6 packing before anything runs.

        With an :attr:`adaptive` store attached, each member query's
        override is leased for the pass (its pruner is built from its
        own effective config).
        """
        if not queries:
            raise PlanError("run_packed needs at least one query")
        if self.adaptive is not None:
            with ExitStack() as stack:
                overrides = [
                    stack.enter_context(self.adaptive.lease(q.cache_key()))
                    for q in queries
                ]
                return self._run_packed_resolved(queries, tables, overrides)
        return self._run_packed_resolved(queries, tables, None)

    def _run_packed_resolved(
        self,
        queries: Sequence[Query],
        tables: TableMap,
        overrides: Optional[List[Optional[ClusterConfig]]],
    ) -> "PackedRunResult":
        ops = [q.operator for q in queries]
        if any(q.where is not None for q in queries):
            raise PlanError("packed queries must fold WHERE into the operator")
        if any(plan_for(op)[1] is not SINGLE_PASS for op in ops):
            raise PlanError(
                "packed execution supports single-pass operators only "
                "(filter/COUNT, DISTINCT, TOP N, GROUP BY)"
            )
        table_names = {op.table for op in ops}
        if len(table_names) != 1:
            raise PlanError(
                f"packed queries must scan one table, got {sorted(table_names)}"
            )
        effective = (
            [override or self.config for override in overrides]
            if overrides is not None
            else [self.config] * len(queries)
        )
        results, shared = self._execute(queries, tables, configs=effective)
        phase = results[0].phases[0]
        return PackedRunResult(results=results, phase=phase, metrics=shared)

    # -- the one run driver ----------------------------------------------------

    def _execute(
        self,
        queries: Sequence[Query],
        tables: TableMap,
        use_cheetah: bool = True,
        configs: Optional[Sequence[ClusterConfig]] = None,
        transport: Optional[Callable] = None,
    ):
        """Run one operator plan; ``(results, registry)``.

        Everything that is the same for every operator happens here,
        once: build and validate the pruners, execute the shards — in
        this process (one shard, the cluster's config and seed, the live
        registry handed over directly), or through ``transport`` (the
        shard pool of :func:`repro.parallel.runner.run_parallel`) — then
        sum the phases, attribute workers, absorb metrics, trace the
        master's completion and assemble one :class:`RunResult` per
        query.
        ``configs`` marks a packed slot (one effective config per
        query): per-query registries, and the shared ``packed-stream``
        phase.  A fan-out that cannot run (no shared memory, pool died
        twice) falls back to the in-process executor, counted and
        evented, keeping the registry's respawn/timeout counters.
        """
        config = self.config
        packed = configs is not None
        kinds = [plan_for(query.operator)[0] for query in queries]
        kind, plan = plan_for(queries[0].operator)
        injector: Optional[FaultInjector] = None
        if use_cheetah and not packed and config.fault_plan is not None:
            injector = FaultInjector(config.fault_plan)
        sides = plan.sides(queries, tables)
        columns = sides[0].columns
        registry = MetricsRegistry()
        #: Per-query isolation in a packed slot: each result's registry
        #: holds only its own pruner's counters and completion span.
        registries = [MetricsRegistry() for _ in queries] if packed else [registry]
        where: Optional[FilterPruner] = None
        if packed:
            pruners = [
                self._build_pruner(query, tables, columns=columns, config=cfg)
                for query, cfg in zip(queries, configs)
            ]
            from ..switch.compiler import pack

            pack([pruner.footprint() for pruner in pruners], config.model)
        elif use_cheetah:
            pruners = [self._build_pruner(queries[0], tables)]
            pruners[0].validate(config.model)
            where = plan.where_stage(queries[0], columns, config)
        else:
            pruners = [] if plan.baseline_phase else [PassthroughPruner()]
        shard = Shard(
            queries, columns, pruners, config, registry, where, parts=self.workers
        )
        names = [plan.baseline_phase] if not pruners else [n for n, _ in plan.phases]
        if packed:
            names[0] = "packed-stream"
        partials = None
        if transport is not None and injector is None:
            try:
                partials = transport(self, plan, shard, sides)
            except SharedMemoryUnavailable as exc:
                registry.counter(
                    "parallel_fallback_total",
                    "Parallel runs that fell back to the in-process executor.",
                    reason=exc.reason,
                ).inc()
                if self.events is not None:
                    self.events.emit(
                        "parallel-fallback",
                        f"shard fan-out unavailable ({exc}); running in-process",
                        source="engine", severity="warning", reason=exc.reason,
                    )
        pooled = partials is not None
        if not pooled:
            with registry.trace("partition"):
                arrays: List[np.ndarray] = []
                row_ids: List[int] = []
                rows = 0
                for side in sides:
                    arrays.extend(side.arrays())
                    row_ids.append(rows)
                    rows += side.table.num_rows
            if not pruners:
                everything = np.arange(rows, dtype=np.int64)
                out = plan.bypass(arrays, everything)
                partials = [{"volumes": [(rows, rows)], "out": out}]
            else:
                batch_size = config.batch_size
                chaos = None
                if injector is not None:
                    chaos = Chaos(injector, kind, pruners[0])
                if packed or chaos is not None or plan is not SINGLE_PASS:
                    # Only a solo single-pass run has a per-entry loop.
                    batch_size = batch_size or DEFAULT_BATCH
                span = None if plan.self_traced else names[0]
                with registry.trace(span) if span else nullcontext():
                    partials = [
                        plan.stream(shard, arrays, row_ids, batch_size, chaos)
                    ]
                for own, pruner, tag in zip(registries, pruners, kinds):
                    _absorb_pruner(own, pruner, query=tag, role="primary")
                if where is not None:
                    _absorb_pruner(registry, where, query=kind, role="where")
        volumes = [partial["volumes"] for partial in partials]
        phases = [
            PhaseVolume(
                name, sum(v[i][0] for v in volumes), sum(v[i][1] for v in volumes)
            )
            for i, name in enumerate(names[: len(volumes[0])])
        ]
        outputs = []
        for index, own in enumerate(registries):
            with own.trace("master-complete"):
                output, extra = plan.complete(shard, sides, partials, index)
            outputs.append(output)
            phases.extend(PhaseVolume(*volume) for volume in extra)
        # Worker labels always range over the cluster's workers.  A
        # single-pass kernel reports per-partition volumes: exact when
        # the partitions were this cluster's workers (in-process), the
        # shard totals split the way Table.partition splits rows on the
        # pool.  Every other phase attributes its streamed total by the
        # same split.
        reported = partials[0].get("workers")
        for phase in phases:
            attributed = reported is not None and phase is phases[0]
            if attributed and not pooled:
                streamed, forwarded = zip(*reported)
            else:
                streamed = np.diff(split_bounds(phase.streamed, self.workers))
                forwarded = (
                    np.diff(split_bounds(phase.forwarded, self.workers))
                    if attributed else None
                )
            _record_worker_volumes(registry, phase.name, streamed, forwarded)
            _record_phase(registry, phase)
        faults = None
        if injector is not None:
            registry.absorb(injector.metrics)
            faults = injector.summary()
        results = [
            RunResult(
                query=query.describe(),
                output=output,
                phases=phases,
                used_cheetah=use_cheetah,
                workers=self.workers,
                op_kind=tag,
                metrics=own,
                faults=faults,
            )
            for query, output, tag, own in zip(queries, outputs, kinds, registries)
        ]
        return results, registry

    # -- shared plumbing -------------------------------------------------------

    def _build_pruner(
        self,
        query: Query,
        tables: TableMap,
        columns: Optional[Sequence[str]] = None,
        config: Optional[ClusterConfig] = None,
    ) -> Pruner:
        """Instantiate the pruner for the primary operator.

        ``columns`` overrides the payload layout (used by the packed
        multi-query path, where several queries share one wider stream);
        ``config`` overrides the cluster config (the packed path builds
        each member query's pruner from its own adaptive override).
        """
        return plan_for(query.operator)[1].pruner(
            query, config if config is not None else self.config, columns
        )


def _record_worker_volumes(
    registry: MetricsRegistry,
    phase: str,
    streamed: Sequence[int],
    forwarded: Optional[Sequence[int]],
) -> None:
    """Account each worker's share of a phase's traffic."""
    for worker, count in enumerate(streamed):
        registry.counter(
            "worker_entries_streamed_total",
            "Entries streamed by each worker per phase.",
            worker=worker,
            phase=phase,
        ).inc(int(count))
        if forwarded is not None:
            registry.counter(
                "worker_entries_forwarded_total",
                "Entries forwarded by each worker per phase.",
                worker=worker,
                phase=phase,
            ).inc(int(forwarded[worker]))


def _record_phase(registry: MetricsRegistry, phase: PhaseVolume) -> None:
    """Mirror a phase's final traffic volumes into registry counters."""
    registry.counter(
        "phase_entries_streamed_total",
        "Entries streamed in each phase.",
        phase=phase.name,
    ).inc(phase.streamed)
    registry.counter(
        "phase_entries_forwarded_total",
        "Entries forwarded in each phase.",
        phase=phase.name,
    ).inc(phase.forwarded)


def _absorb_pruner(
    registry: MetricsRegistry, pruner: Pruner, **labels: object
) -> None:
    """Refresh a pruner's health gauges, then fold its registry in."""
    pruner.observe_health()
    registry.absorb(pruner.metrics, **labels)
