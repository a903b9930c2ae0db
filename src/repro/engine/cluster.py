"""The Cheetah cluster runner: workers → switch pruner → master.

:class:`Cluster` executes a :class:`~repro.engine.plan.Query` the way the
paper's testbed does: the table is partitioned across workers, each
CWorker streams only the queried columns as one-entry packets, the switch
pruner decides PRUNE/FORWARD per entry, and the CMaster completes the
query on the survivors.  The runner returns both the output (asserted
equal to :func:`~repro.engine.reference.run_reference`) and the traffic
volumes each phase moved, which the cost model turns into completion
times.

Multi-pass operators are faithful: JOIN streams the key columns of both
tables to build the Bloom filters before the pruning pass; HAVING's
master issues the partial second pass for candidate keys; SKYLINE drains
the switch-resident points at FIN.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from dataclasses import replace as dataclass_replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import PassthroughPruner, PruneDecision, Pruner
from ..core.distinct import DistinctPruner, FingerprintDistinctPruner
from ..core.filtering import FilterPruner
from ..core.groupby import GroupByPruner
from ..core.having import HavingPruner, master_having
from ..core.join import JoinPruner
from ..core.skyline import SkylinePruner, master_skyline
from ..core.summary import is_reboot_safe
from ..core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from ..errors import ConfigurationError, PlanError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent, FaultPlan
from ..obs import MetricsRegistry, ratio
from ..switch.fuse import FUSED_DEFAULT_BATCH
from ..switch.resources import ResourceModel, TOFINO
from .dataplane import (
    Step,
    compile_program,
    concat_ids,
    having_sketch,
    join_output,
    join_probe,
    merge_single_pass,
    point_matrix,
    pruner_step,
    single_pass_partial,
    skyline_stream,
    stream_batches,
)
from .plan import (
    CountOp,
    DistinctOp,
    FilterOp,
    GroupByOp,
    HavingOp,
    JoinOp,
    Query,
    SkylineOp,
    TopNOp,
)
from .reference import TableMap, run_reference
from .table import Table


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


#: Why a stage exhaustion may fail open, per operator.  HAVING is absent
#: on purpose: keys counted before the failure may never re-cross the
#: threshold, so it takes its refetch-all recovery instead.
_EXHAUST_DETAIL = {
    "join": "; remaining probes forward unfiltered",
    "skyline": "; cache intact and drains at FIN",
}


class _Chaos:
    """One chaos run's fault handling: apply switch events, drive segments.

    ``passthrough`` latches on when the switch can no longer prune soundly
    (stage exhaustion, or a reboot-unsafe operator choosing forward-all);
    every later entry is forwarded unfiltered and the master completes the
    query itself — superset-safety keeps the output unchanged.
    """

    def __init__(self, injector: FaultInjector, kind: str, pruner: Pruner) -> None:
        self.injector = injector
        self.kind = kind
        self.pruner = pruner
        self.passthrough = False
        #: Row ids a recovery wants streamed again behind the remainder
        #: (SKYLINE's restart-replay).
        self.requeue: Optional[np.ndarray] = None

    def apply(self, event: FaultEvent, recover: Optional[Callable] = None) -> None:
        """Apply one switch fault and record the degradation it forces.

        Stage exhaustion disables the pruning program outright: the stage
        fails open and the remainder is forwarded unfiltered.  A reboot —
        or a parity-detected bit flip, which is handled as one — empties
        the dataplane state: operators Table 4 marks reboot-safe only ever
        forward *more* from empty state, so they continue; the others
        (JOIN, HAVING, SKYLINE) take the operator's own
        ``recover(event) -> (action, detail)``.
        """
        injector, kind = self.injector, self.kind
        if event.kind == "bitflip":
            hit = self.pruner.corrupt_state(injector.rng)
            injector.record(event.kind, event.at, op=kind, hit=hit)
            if hit is None:
                return  # landed in unallocated SRAM; nothing to recover
            reason = f"parity-detected bit flip ({hit})"
        else:
            injector.record(event.kind, event.at, op=kind)
            reason = (
                "switch reboot" if event.kind == "reboot"
                else "pipeline stage exhausted"
            )
        if event.kind == "exhaust" and kind != "having":
            self.passthrough = True
            action = "passthrough-remainder"
            detail = _EXHAUST_DETAIL.get(
                kind, "; stage fails open, remainder forwarded"
            )
        elif is_reboot_safe(kind):
            self.pruner.reboot()
            action = "continue-empty-state"
            detail = f"; {kind} is reboot-safe (Table 4) — superset forwarded"
        else:
            action, detail = recover(event)
        injector.record_degradation(kind, action, event.at, reason + detail)

    def stream(
        self,
        ids: np.ndarray,
        kernel: Callable,
        recover: Optional[Callable] = None,
        bypass: Callable = lambda segment: segment,
    ) -> Tuple[int, int, list]:
        """Drive a perturbed row-id stream one fault-free segment at a time.

        The injector says how many entries may pass before the next switch
        event; the stream is split there, the due events are applied, and
        the segment runs through ``kernel(segment) -> (forwarded, out)``
        as one batch stream — or, once passthrough has latched, through
        ``bypass(segment) -> out`` with every entry forwarded.  An event
        at global position ``k`` therefore still fires after entry
        ``k - 1`` and before entry ``k``.  Returns ``(streamed,
        forwarded, outs)``.
        """
        forwarded = position = 0
        outs = []
        while position < len(ids):
            count = len(ids) - position
            gap = self.injector.entries_until_event()
            if gap is not None:
                count = min(count, gap)
            for event in self.injector.advance(count):
                self.apply(event, recover)
            if self.requeue is not None:
                ids = np.concatenate([ids, self.requeue])
                self.requeue = None
            segment = ids[position : position + count]
            position += count
            if self.passthrough:
                forwarded += count
                outs.append(bypass(segment))
            else:
                kept, out = kernel(segment)
                forwarded += kept
                outs.append(out)
        return position, forwarded, outs


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
        ``metrics`` subcommand and ``scripts/check_metrics_schema.py``
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
    """Hit/miss totals of the switch compiler's memoization layers.

    Surfaced on every run report so callers see cache effectiveness
    without reaching for the module-level helpers: ``fit_pack`` is the
    fit-check/pack memo (:func:`~repro.switch.compiler.compile_cache_stats`)
    and ``fused_plans`` the fused-plan memo
    (:func:`~repro.switch.fuse.fused_cache_stats`).
    """
    from ..switch.compiler import compile_cache_stats

    from ..switch.fuse import fused_cache_stats

    return {"fit_pack": compile_cache_stats(), "fused_plans": fused_cache_stats()}


@dataclass
class ClusterConfig:
    """Per-operator pruner parameters (paper defaults from Table 2 / §8).

    ``batch_size`` switches the streaming loops to the vectorized batch
    dataplane: workers hand the pruner column slices of up to this many
    rows instead of one-entry packets.  Decisions, outputs and phase
    volumes are identical to the scalar path (``None``, the default).

    ``parallelism`` > 1 executes Cheetah runs across that many OS
    processes (:mod:`repro.parallel`), each owning one pruner shard laid
    out by ``shard_policy`` (``"auto"``: multiswitch hash partitioning
    for keyed stateful operators, contiguous replicas otherwise).  Runs
    fall back to this sequential path when a fault plan is active,
    shared memory is unavailable, or the run is a baseline
    (``use_cheetah=False``).
    """

    batch_size: Optional[int] = None
    #: Wall-clock seconds one parallel shard task may run before the
    #: runner retries it (once on the pool, then sequentially in the
    #: parent).  ``None`` (the default) disables shard timeouts.
    shard_timeout: Optional[float] = None
    #: Execute via the fused single-pass dataplane
    #: (:mod:`repro.switch.fuse`) where possible: the packed multi-query
    #: path always (default batch ``FUSED_DEFAULT_BATCH`` when
    #: ``batch_size`` is None), and the batched single-pass path when
    #: ``batch_size`` is set.  Programs the fusion layer cannot compile
    #: (randomized TOP N, fingerprint/multi-column DISTINCT, a stateful
    #: operator behind a WHERE stage) fall back to the per-pruner path
    #: automatically, counted by ``fused_fallback_total{reason}``.
    fused: bool = True
    parallelism: int = 1
    shard_policy: str = "auto"
    distinct_rows: int = 4096
    distinct_cols: int = 2
    distinct_policy: str = "lru"
    distinct_fingerprint: bool = False
    distinct_delta: float = 1e-4
    topn_randomized: bool = True
    topn_rows: int = 4096
    topn_cols: Optional[int] = None
    topn_thresholds: int = 4
    topn_delta: float = 1e-4
    groupby_rows: int = 4096
    groupby_cols: int = 8
    join_memory_bits: int = 4 * 1024 * 1024 * 8
    join_hashes: int = 3
    join_variant: str = "bf"
    having_width: int = 1024
    having_depth: int = 3
    skyline_points: int = 10
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
    #: Sample every Nth fused kernel batch as a ``fused-batch`` trace
    #: span (0, the default, disables per-batch spans entirely).  Only
    #: meaningful when a request :class:`~repro.obs.TraceContext` is
    #: active; keep the stride large — per-batch spans are the most
    #: voluminous signal the tracer can produce.
    fused_trace_sample: int = 0
    #: Keep this cluster's tables resident in shared memory across runs
    #: (:mod:`repro.parallel.resident`): columns and hash-shard plans
    #: are exported once per table version and reused by parallel shard
    #: processes, the sequential path, and packed slots alike.  The
    #: serving layer versions residency explicitly (``ensure_resident``
    #: on every ``update_tables``); standalone clusters build a store
    #: lazily on the first Cheetah run.
    resident: bool = False

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
        if self.shard_policy not in ("auto", "contiguous", "hash"):
            raise ConfigurationError(
                f"shard_policy must be 'auto', 'contiguous' or 'hash', "
                f"got {self.shard_policy!r}"
            )
    model: ResourceModel = TOFINO
    validate_resources: bool = True


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
        #: Optional :class:`~repro.parallel.resident.ResidentTableStore`
        #: installed by :meth:`ensure_resident` when
        #: :attr:`ClusterConfig.resident` is on.
        self.resident = None

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
        clone.resident = self.resident
        return clone

    # -- table residency -----------------------------------------------------

    def ensure_resident(self, tables: TableMap, version: Optional[int] = None):
        """Install (or reuse) a resident store covering ``tables``.

        A no-op (returns ``None``) unless :attr:`ClusterConfig.resident`
        is set.  The current store is reused when it is live, covers
        every table by identity, and — when ``version`` is given (the
        serving layer's ``tables_version``) — carries that version;
        otherwise it is retired (segments unlinked once in-flight runs
        drain) and a fresh store is built for the new epoch.  A host
        without shared memory returns ``None``: every path already
        treats "no resident store" as the per-run export mode.
        """
        if not self.config.resident:
            return None
        from ..errors import SharedMemoryUnavailable
        from ..parallel.resident import ResidentTableStore

        store = self.resident
        if (
            store is not None
            and not store.retired
            and store.matches(tables)
            and (version is None or store.version == version)
        ):
            return store
        next_version = (
            version
            if version is not None
            else (store.version + 1 if store is not None else 0)
        )
        self.resident = None
        if store is not None:
            store.retire()
        try:
            self.resident = ResidentTableStore(tables, version=next_version)
        except SharedMemoryUnavailable:
            self.resident = None
        return self.resident

    def release_resident(self):
        """Retire the resident store (if any); segments unlink when the
        last leased run drains.  Returns the retired store."""
        store, self.resident = self.resident, None
        if store is not None:
            store.retire()
        return store

    def _resident_projection(
        self, name: str, table: Table, columns: Sequence[str]
    ) -> Optional[Table]:
        """A zero-copy resident view of ``table`` for in-process streaming.

        ``None`` whenever the store is absent, retired, or does not own
        this exact ``table`` object (the identity version fence) — the
        caller streams the original columns, which is always exact.  The
        lease taken here lives exactly as long as the projection object:
        it is released by a finalizer when the run drops its last
        reference, so a concurrent retire can never unmap pages a
        streaming pass is still reading (closing a segment invalidates
        every view over it, even ones numpy still holds).
        """
        import weakref

        from ..errors import SharedMemoryUnavailable

        store = self.resident
        if store is None or not store.owns(name, table):
            return None
        if not store.acquire():
            return None
        try:
            projection = store.project(name, columns)
        except SharedMemoryUnavailable:
            store.release()
            return None
        weakref.finalize(projection, store.release)
        return projection

    def _run_resolved(
        self, query: Query, tables: TableMap, use_cheetah: bool = True
    ) -> RunResult:
        operator = query.operator
        injector: Optional[FaultInjector] = None
        if use_cheetah and self.config.fault_plan is not None:
            injector = FaultInjector(self.config.fault_plan)
        if (
            use_cheetah
            and injector is None
            and self.config.resident
            and self.resident is None
        ):
            # Lazy standalone residency — built only when no store exists
            # at all.  A store that doesn't cover this run's tables is
            # left alone (a request holding a stale snapshot must not
            # retire the current epoch); the run just takes the per-run
            # export path, which is always exact.
            self.ensure_resident(tables)
        if use_cheetah and self.config.parallelism > 1 and injector is None:
            from ..errors import SharedMemoryUnavailable
            from ..parallel.runner import run_parallel

            try:
                return run_parallel(self, query, tables)
            except SharedMemoryUnavailable:
                pass  # no shared memory here; the sequential path is exact
        if isinstance(operator, JoinOp):
            result = self._run_join(query, tables, use_cheetah, injector)
        elif isinstance(operator, HavingOp):
            result = self._run_having(query, tables, use_cheetah, injector)
        elif isinstance(operator, SkylineOp):
            result = self._run_skyline(query, tables, use_cheetah, injector)
        else:
            result = self._run_single_pass(query, tables, use_cheetah, injector)
        if injector is not None and result.metrics is not None:
            result.metrics.absorb(injector.metrics)
            result.faults = injector.summary()
        return result

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
        own effective config); the fused plan is compiled conservatively
        so a variant override can only ever force the per-pruner path,
        never a wrong fused kernel.
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
        if any(isinstance(op, (JoinOp, HavingOp, SkylineOp)) for op in ops):
            raise PlanError(
                "packed execution supports single-pass operators only "
                "(filter/COUNT, DISTINCT, TOP N, GROUP BY)"
            )
        table_names = {op.table for op in ops}
        if len(table_names) != 1:
            raise PlanError(
                f"packed queries must scan one table, got {sorted(table_names)}"
            )
        table = tables[ops[0].table]
        columns: List[str] = []
        for query in queries:
            for column in query.stream_columns():
                if column not in columns:
                    columns.append(column)
        effective = (
            [override or self.config for override in overrides]
            if overrides is not None
            else [self.config] * len(queries)
        )
        pruners = [
            self._build_pruner(q, tables, columns=columns, config=effective[i])
            for i, q in enumerate(queries)
        ]
        if self.config.validate_resources:
            from ..switch.compiler import pack

            pack([p.footprint() for p in pruners], self.config.model)
        # The fused plan depends only on the variant axes; with mixed
        # per-query overrides, OR-ing them is conservative — a query
        # whose override needs an unfusable variant forces the (exact)
        # per-pruner fallback for the whole slot.
        if all(cfg == effective[0] for cfg in effective):
            plan_config = effective[0]
        else:
            plan_config = dataclass_replace(
                self.config,
                topn_randomized=any(cfg.topn_randomized for cfg in effective),
                distinct_fingerprint=any(
                    cfg.distinct_fingerprint for cfg in effective
                ),
            )
        shared = MetricsRegistry()
        phase = PhaseVolume("packed-stream")
        # Packed slots stream through resident views too (same fence and
        # fallback semantics as the sequential single-pass path; lazy
        # build only when no store exists, so a stale-snapshot slot can
        # never retire the current epoch).
        if self.config.resident and self.resident is None:
            self.ensure_resident(tables)
        stream_table = table
        projection = self._resident_projection(ops[0].table, table, columns)
        if projection is not None:
            stream_table = projection
        with shared.trace("partition"):
            parts = self._partitions(stream_table)
        # Fused dataplane: compile the packed program once; when every
        # query fuses, one vectorized pass accumulates all keep-masks.
        # Otherwise each pruner sees the batch through its own entry
        # mapping (decisions match the plain loop exactly, and this is the
        # fair baseline the fused benchmark races against).
        program = None
        if self.config.fused:
            program = compile_program(
                queries, columns, self.config, pruners, shared, plan_config
            )
        batch_size = self.config.batch_size
        if program is not None:
            batch_size = batch_size or FUSED_DEFAULT_BATCH
        with shared.trace("packed-stream"):
            if batch_size is None:
                survivor_ids = self._plain_packed(
                    queries, pruners, parts, columns, phase, shared
                )
            else:
                step = (
                    program.run_batch if program is not None
                    else pruner_step(queries, columns, pruners)
                )
                survivor_ids = self._stream_partitions(
                    step, parts, columns, phase, shared, batch_size, len(queries)
                )
        _record_phase(shared, phase)
        results = []
        for query, pruner, ids in zip(queries, pruners, survivor_ids):
            # Per-query isolation: each result carries a registry holding
            # only its own pruner's counters and completion span.
            registry = MetricsRegistry()
            kind = _op_kind(query.operator)
            with registry.trace("master-complete"):
                output = merge_single_pass(
                    query, [single_pass_partial(query, columns, table, ids)]
                )
            _absorb_pruner(registry, pruner, query=kind, role="primary")
            results.append(
                RunResult(
                    query=query.describe(),
                    output=output,
                    phases=[phase],
                    used_cheetah=True,
                    workers=self.workers,
                    op_kind=kind,
                    metrics=registry,
                )
            )
        return PackedRunResult(results=results, phase=phase, metrics=shared)

    # -- shared plumbing -------------------------------------------------------

    def _partitions(self, table: Table) -> List[Table]:
        return table.partition(self.workers)

    def _record_worker_shares(
        self,
        registry: MetricsRegistry,
        phase: str,
        total: int,
        forwarded: Optional[int] = None,
    ) -> None:
        """Per-worker streamed attribution for unpartitioned streams.

        The multi-pass operators (JOIN, HAVING, SKYLINE) drive whole
        column arrays rather than explicit per-worker partitions; their
        traffic is attributed to workers by the *same* split
        ``Table.partition`` uses (remainder rows on the later workers),
        so per-worker counters match the partition sizes an explicitly
        partitioned phase would record, and their sum is exactly
        ``total``.  ``forwarded``, when given, is attributed the same
        way (the parallel runner uses it for schema parity with the
        sequential single-pass counters).
        """
        bounds = np.linspace(0, total, self.workers + 1, dtype=int)
        shares = np.diff(bounds)
        forward_shares = (
            np.diff(np.linspace(0, forwarded, self.workers + 1, dtype=int))
            if forwarded is not None
            else None
        )
        for worker in range(self.workers):
            registry.counter(
                "worker_entries_streamed_total",
                "Entries streamed by each worker per phase.",
                worker=worker,
                phase=phase,
            ).inc(int(shares[worker]))
            if forward_shares is not None:
                registry.counter(
                    "worker_entries_forwarded_total",
                    "Entries forwarded by each worker per phase.",
                    worker=worker,
                    phase=phase,
                ).inc(int(forward_shares[worker]))

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
        op = query.operator
        cfg = config if config is not None else self.config
        if isinstance(op, (CountOp, FilterOp)):
            if columns is None:
                columns = query.stream_columns()
            formula = op.predicate.to_formula(columns)
            if query.where is not None:
                formula = formula & query.where.to_formula(columns)
            return FilterPruner(formula, worker_assist=cfg.worker_assist_filters)
        if isinstance(op, DistinctOp):
            if cfg.distinct_fingerprint:
                return FingerprintDistinctPruner(
                    rows=cfg.distinct_rows,
                    cols=cfg.distinct_cols,
                    delta=cfg.distinct_delta,
                    policy=cfg.distinct_policy,
                    seed=cfg.seed,
                    model=cfg.model,
                )
            return DistinctPruner(
                rows=cfg.distinct_rows,
                cols=cfg.distinct_cols,
                policy=cfg.distinct_policy,
                seed=cfg.seed,
                model=cfg.model,
            )
        if isinstance(op, TopNOp):
            if cfg.topn_randomized:
                return TopNRandomizedPruner(
                    n=op.n,
                    rows=cfg.topn_rows,
                    cols=cfg.topn_cols,
                    delta=cfg.topn_delta,
                    seed=cfg.seed,
                )
            return TopNDeterministicPruner(n=op.n, thresholds=cfg.topn_thresholds)
        if isinstance(op, GroupByOp):
            return GroupByPruner(
                aggregate=op.aggregate,
                rows=cfg.groupby_rows,
                cols=cfg.groupby_cols,
                seed=cfg.seed,
            )
        if isinstance(op, JoinOp):
            return JoinPruner(
                left=op.table,
                right=op.right_table,
                memory_bits=cfg.join_memory_bits,
                hashes=cfg.join_hashes,
                variant=cfg.join_variant,
                seed=cfg.seed,
            )
        if isinstance(op, HavingOp):
            return HavingPruner(
                threshold=op.threshold,
                aggregate=op.aggregate,
                width=cfg.having_width,
                depth=cfg.having_depth,
                seed=cfg.seed,
            )
        if isinstance(op, SkylineOp):
            return SkylinePruner(
                dims=len(op.columns),
                points=cfg.skyline_points,
                score=cfg.skyline_score,
            )
        raise PlanError(f"no pruner for {type(op).__name__}")

    def _maybe_validate(self, pruner: Pruner) -> None:
        if self.config.validate_resources:
            pruner.validate(self.config.model)

    def _build_where_stage(
        self, query: Query, columns: Sequence[str]
    ) -> Optional[FilterPruner]:
        """The packed pre-filter stage for a stateful primary operator.

        A WHERE-violating row must not reach a stateful pruner (it could
        shadow a passing row in a DISTINCT/GROUP BY cache).  A fully
        switch-supported WHERE filters exactly; unsupported predicates
        require worker assist (the CWorker computes them and ships the
        result bit, §4.1) — without it we refuse rather than risk a wrong
        answer.
        """
        op = query.operator
        if query.where is None or isinstance(op, (CountOp, FilterOp)):
            return None
        formula = query.where.to_formula(columns)
        has_unsupported = any(not atom.supported for atom in formula.atoms())
        if has_unsupported and not self.config.worker_assist_filters:
            raise PlanError(
                "WHERE contains switch-unsupported predicates before a stateful "
                "operator; enable ClusterConfig.worker_assist_filters"
            )
        return FilterPruner(formula, worker_assist=self.config.worker_assist_filters)

    def _batch_size(self, injector: Optional[FaultInjector]) -> Optional[int]:
        """The run's batch size; chaos runs always stream in batches."""
        if injector is not None:
            return self.config.batch_size or FUSED_DEFAULT_BATCH
        return self.config.batch_size

    # -- single-pass operators -------------------------------------------------

    def _run_single_pass(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        table = tables[op.table]
        columns = query.stream_columns()
        kind = _op_kind(op)
        registry = MetricsRegistry()
        pruner: Pruner = (
            self._build_pruner(query, tables) if use_cheetah else PassthroughPruner()
        )
        self._maybe_validate(pruner)
        where_pruner = (
            self._build_where_stage(query, columns) if use_cheetah else None
        )
        phase = PhaseVolume("stream")
        batch_size = self._batch_size(injector)
        # Stream through resident views when the store owns this exact
        # table: the sequential path then reads the same physical pages
        # the shard processes map.  Completion still gathers from the
        # original table (identical values either way).
        stream_table = table
        if use_cheetah and injector is None:
            projection = self._resident_projection(op.table, table, columns)
            if projection is not None:
                stream_table = projection
        with registry.trace("partition"):
            parts = self._partitions(stream_table)
        # The fused program engages only on batched fault-free Cheetah
        # runs (a batch_size=None run keeps its exact counter schema; a
        # chaos run drives the pruners' own reboot/corrupt hooks) and only
        # when the single-query program compiles; unfusable programs are
        # counted and take the per-pruner kernel.
        program = None
        if use_cheetah and injector is None and batch_size and self.config.fused:
            program = compile_program(
                [query], columns, self.config, [pruner], registry
            )
        with registry.trace("stream"):
            if batch_size is None:
                ids = self._plain_single_pass(
                    op, parts, columns, pruner, where_pruner, phase, registry
                )
            else:
                step = (
                    program.run_batch if program is not None
                    else pruner_step([query], columns, [pruner], where_pruner)
                )
                chaos = (
                    _Chaos(injector, kind, pruner) if injector is not None else None
                )
                (ids,) = self._stream_partitions(
                    step, parts, columns, phase, registry, batch_size, chaos=chaos
                )
        with registry.trace("master-complete"):
            # Under faults the same row can arrive twice (duplicated
            # packets, a crashed worker's replay): dedup by row id.
            survivors = single_pass_partial(
                query, columns, table, ids, dedup=injector is not None
            )
            output = merge_single_pass(query, [survivors])
        _record_phase(registry, phase)
        _absorb_pruner(registry, pruner, query=kind, role="primary")
        if where_pruner is not None:
            _absorb_pruner(registry, where_pruner, query=kind, role="where")
        return RunResult(
            query=query.describe(),
            output=output,
            phases=[phase],
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=kind,
            metrics=registry,
        )

    def _stream_partitions(
        self,
        step: Step,
        parts: Sequence[Table],
        columns: Sequence[str],
        phase: PhaseVolume,
        registry: MetricsRegistry,
        batch_size: int,
        outputs: int = 1,
        chaos: Optional[_Chaos] = None,
    ) -> List[np.ndarray]:
        """Stream every worker partition through ``step``; row ids per query.

        One :func:`stream_batches` call per partition — or, under a fault
        plan, one per fault-free segment of the partition's perturbed
        row-id stream (link and worker faults reorder, repeat and replay
        row ids; the segment's columns are gathered by id).
        """
        per_query: List[List[np.ndarray]] = [[] for _ in range(outputs)]
        row_base = 0
        for worker, part in enumerate(parts):
            arrays = [part.column(name) for name in columns]
            if chaos is None:
                streamed, forwarded, ids = stream_batches(
                    step, arrays, row_base, batch_size, outputs
                )
            else:
                injector = chaos.injector

                def kernel(segment: np.ndarray):
                    local = segment - row_base
                    _, kept, out = stream_batches(
                        step, [a[local] for a in arrays], segment, batch_size
                    )
                    return kept, out[0]

                stream = injector.perturb_partition(
                    range(row_base, row_base + part.num_rows),
                    injector.cursor,
                    worker,
                    phase.name,
                )
                streamed, forwarded, outs = chaos.stream(
                    np.asarray(stream, dtype=np.int64), kernel
                )
                ids = [concat_ids(outs)]
            phase.streamed += streamed
            phase.forwarded += forwarded
            for kept, chunk in zip(per_query, ids):
                kept.append(chunk)
            _record_worker_volume(registry, phase.name, worker, streamed, forwarded)
            row_base += part.num_rows
        return [concat_ids(kept) for kept in per_query]

    # -- the plain batch_size=None loops: one process() call per entry ---------

    def _plain_single_pass(
        self,
        op,
        parts: Sequence[Table],
        columns: Sequence[str],
        pruner: Pruner,
        where_pruner: Optional[FilterPruner],
        phase: PhaseVolume,
        registry: MetricsRegistry,
    ) -> np.ndarray:
        survivors: List[int] = []
        row_base = 0
        for worker, part in enumerate(parts):
            forwarded_before = phase.forwarded
            for offset, payload in enumerate(part.iter_rows(columns)):
                # The packed filter stage (§6) runs first, so
                # WHERE-violating rows never pollute the stateful
                # operator's caches.
                if (
                    where_pruner is not None
                    and where_pruner.process(payload) is PruneDecision.PRUNE
                ):
                    continue
                entry = self._payload_to_entry(op, columns, payload)
                if pruner.process(entry) is PruneDecision.FORWARD:
                    phase.forwarded += 1
                    survivors.append(row_base + offset)
            phase.streamed += part.num_rows
            _record_worker_volume(
                registry,
                phase.name,
                worker,
                part.num_rows,
                phase.forwarded - forwarded_before,
            )
            row_base += part.num_rows
        return np.asarray(survivors, dtype=np.int64)

    def _plain_packed(
        self,
        queries: Sequence[Query],
        pruners: Sequence[Pruner],
        parts: Sequence[Table],
        columns: Sequence[str],
        phase: PhaseVolume,
        registry: MetricsRegistry,
    ) -> List[np.ndarray]:
        per_query: List[List[int]] = [[] for _ in queries]
        row_base = 0
        for worker, part in enumerate(parts):
            forwarded_before = phase.forwarded
            for offset, payload in enumerate(part.iter_rows(columns)):
                any_forward = False
                for survivors, query, pruner in zip(per_query, queries, pruners):
                    entry = self._payload_to_entry(query.operator, columns, payload)
                    if pruner.process(entry) is PruneDecision.FORWARD:
                        any_forward = True
                        survivors.append(row_base + offset)
                phase.forwarded += any_forward
            phase.streamed += part.num_rows
            _record_worker_volume(
                registry,
                phase.name,
                worker,
                part.num_rows,
                phase.forwarded - forwarded_before,
            )
            row_base += part.num_rows
        return [np.asarray(survivors, dtype=np.int64) for survivors in per_query]

    def _plain_join_probe(
        self, op: JoinOp, pruner: JoinPruner, left_keys, right_keys, probe: PhaseVolume
    ) -> np.ndarray:
        survivors: List[int] = []
        sides = ((op.table, left_keys, 0), (op.right_table, right_keys, len(left_keys)))
        for side, keys, base in sides:
            for offset, key in enumerate(keys):
                if pruner.process((side, key)) is PruneDecision.FORWARD:
                    survivors.append(base + offset)
        probe.streamed = len(left_keys) + len(right_keys)
        probe.forwarded = len(survivors)
        return np.asarray(survivors, dtype=np.int64)

    def _plain_having_sketch(
        self, pruner: HavingPruner, data: Sequence[Tuple], sketch: PhaseVolume
    ) -> np.ndarray:
        survivors = [
            row
            for row, entry in enumerate(data)
            if pruner.process(entry) is PruneDecision.FORWARD
        ]
        sketch.streamed = len(data)
        sketch.forwarded = len(survivors)
        return np.asarray(survivors, dtype=np.int64)

    def _plain_skyline_stream(
        self, pruner: SkylinePruner, matrix: np.ndarray, phase: PhaseVolume
    ) -> List[Tuple[float, ...]]:
        received = []
        for point in map(tuple, matrix.tolist()):
            if pruner.process(point) is PruneDecision.FORWARD:
                received.append(pruner.last_carried)
        phase.streamed = len(matrix)
        phase.forwarded = len(received)
        return received

    def _payload_to_entry(self, op, columns: Sequence[str], payload: Tuple):
        """Map the streamed payload to the pruner's entry shape."""
        if isinstance(op, (CountOp, FilterOp)):
            return payload
        if isinstance(op, DistinctOp):
            if len(op.columns) == 1:
                return payload[columns.index(op.columns[0])]
            return tuple(payload[columns.index(c)] for c in op.columns)
        if isinstance(op, TopNOp):
            value = float(payload[columns.index(op.order_by)])
            # Ascending order ("bottom N") negates into the max-domain
            # the pruners are built for.
            return value if op.descending else -value
        if isinstance(op, GroupByOp):
            return (
                payload[columns.index(op.key)],
                float(payload[columns.index(op.value)]),
            )
        raise PlanError(f"no entry mapping for {type(op).__name__}")

    # -- JOIN: two passes --------------------------------------------------------

    def _run_join(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, JoinOp)
        if query.where is not None:
            raise PlanError("pre-filtered JOIN is not modeled; filter the table first")
        left_col = tables[op.table].column(op.left_on)
        right_col = tables[op.right_table].column(op.right_on)
        #: Probe row ids: the left table's rows, then the right table's.
        split = len(left_col)
        total = split + len(right_col)
        batch_size = self._batch_size(injector)
        registry = MetricsRegistry()
        phases = []
        if use_cheetah:
            pruner = self._build_pruner(query, tables)
            self._maybe_validate(pruner)
            keys = (
                (left_col, right_col) if batch_size is not None
                else (left_col.tolist(), right_col.tolist())
            )
            build = PhaseVolume("join-build", streamed=total)
            rebuild = PhaseVolume("join-rebuild")
            chaos = _Chaos(injector, "join", pruner) if injector is not None else None

            def recover(event: FaultEvent, during: str) -> Tuple[str, str]:
                # JOIN is not reboot-safe.  Losing the Bloom filters
                # mid-*build* simply restarts the build pass.  Losing them
                # mid-*probe* is the Table 4 hazard: an empty filter would
                # prune every remaining probe, silently losing join rows.
                # ``degrade_policy`` decides between re-streaming the build
                # pass (extra ``join-rebuild`` traffic) and forwarding the
                # remaining probes unfiltered; ``"auto"`` consults the
                # filters' fill ratio — a nearly-full filter barely prunes,
                # so rebuilding it buys nothing.
                if during == "build":
                    pruner.reboot()
                    pruner.build(*keys)
                    rebuild.streamed += total
                    return (
                        "rebuild-build",
                        " during the build pass; both key columns re-streamed",
                    )
                # Health gauges survive a reboot (the controller keeps
                # metrics), so capture the fill ratio before the wipe.
                pruner.observe_health()
                fill = max(f.fill_ratio() for f in pruner._filters.values())
                action = self.config.degrade_policy
                if action == "auto":
                    action = "passthrough" if fill > 0.5 else "rebuild"
                pruner.reboot()
                detail = f" during probe; bloom fill {fill:.3f} — "
                if action == "rebuild":
                    pruner.build(*keys)
                    rebuild.streamed += total
                    return action, detail + "build pass re-streamed"
                chaos.passthrough = True
                return action, detail + "remaining probes forward unfiltered"

            with registry.trace("join-build"):
                pruner.build(*keys)
                if chaos is not None:
                    # Build-pass entries advance the fault cursor in one
                    # step; a reboot/bitflip inside the span restarts the
                    # whole build (re-streamed traffic lands on rebuild).
                    for event in injector.advance(total):
                        chaos.apply(event, partial(recover, during="build"))
            phases.append(build)
            probe = PhaseVolume("join-probe")

            def probe_segment(segment: np.ndarray):
                # A perturbed segment can mix sides; each run of one side
                # probes the other side's filter as one batch stream.
                forwarded, chunks = 0, []
                cuts = np.flatnonzero(np.diff(segment >= split)) + 1
                for run in filter(len, np.split(segment, cuts)):
                    side, column, base = (
                        (op.right_table, right_col, split) if run[0] >= split
                        else (op.table, left_col, 0)
                    )
                    _, kept, ids = join_probe(
                        pruner, side, column[run - base], run, batch_size
                    )
                    forwarded += kept
                    chunks.append(ids)
                return forwarded, concat_ids(chunks)

            with registry.trace("join-probe"):
                if batch_size is None:
                    ids = self._plain_join_probe(op, pruner, *keys, probe)
                elif chaos is None:
                    probe.streamed = total
                    probe.forwarded, ids = probe_segment(
                        np.arange(total, dtype=np.int64)
                    )
                else:
                    stream = injector.perturb_partition(
                        range(total), injector.cursor, 0, probe.name
                    )
                    probe.streamed, probe.forwarded, outs = chaos.stream(
                        np.asarray(stream, dtype=np.int64),
                        probe_segment,
                        partial(recover, during="probe"),
                    )
                    ids = np.unique(concat_ids(outs))  # replayed probes dedup
            phases.append(probe)
            if rebuild.streamed:
                phases.append(rebuild)
            for phase in phases:
                self._record_worker_shares(registry, phase.name, phase.streamed)
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
            left_survivors = left_col[ids[ids < split]]
            right_survivors = right_col[ids[ids >= split] - split]
        else:
            stream = PhaseVolume("join-stream", streamed=total, forwarded=total)
            phases.append(stream)
            self._record_worker_shares(registry, stream.name, total)
            left_survivors, right_survivors = left_col, right_col
        with registry.trace("master-complete"):
            output = join_output(left_survivors.tolist(), right_survivors.tolist())
        for phase in phases:
            _record_phase(registry, phase)
        return RunResult(
            query=query.describe(),
            output=output,
            phases=phases,
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )

    # -- HAVING: sketch pass + partial second pass --------------------------------

    def _run_having(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, HavingOp)
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        keys_col = table.column(op.key)
        values_col = table.column(op.value)
        data = list(zip(keys_col.tolist(), values_col.tolist()))
        batch_size = self._batch_size(injector)
        registry = MetricsRegistry()
        phases = []
        if use_cheetah:
            pruner = self._build_pruner(query, tables)
            self._maybe_validate(pruner)
            sketch_pass = PhaseVolume("having-sketch")
            chaos = (
                _Chaos(injector, "having", pruner) if injector is not None else None
            )

            def recover(event: FaultEvent) -> Tuple[str, str]:
                # HAVING is not reboot-safe (Table 4): a key whose entries
                # all arrived before the fault may never re-cross the
                # threshold, so no amount of forward-from-here-on recovers
                # it.  The only sound fallback is to treat *every* key as
                # a candidate — the partial second pass becomes a full one
                # (baseline traffic, correct output).  An exhausted stage
                # stops updating the sketch but keeps its state.
                if event.kind != "exhaust":
                    pruner.reboot()
                chaos.passthrough = True
                return (
                    "refetch-all",
                    "; HAVING is not reboot-safe — every key becomes a "
                    "candidate for the second pass",
                )

            with registry.trace("having-sketch"):
                if batch_size is None:
                    ids = self._plain_having_sketch(pruner, data, sketch_pass)
                elif chaos is None:
                    sketch_pass.streamed, sketch_pass.forwarded, ids = having_sketch(
                        pruner, keys_col, values_col, 0, batch_size
                    )
                else:
                    stream = injector.perturb_partition(
                        range(len(data)), injector.cursor, 0, sketch_pass.name
                    )
                    sketch_pass.streamed, sketch_pass.forwarded, outs = chaos.stream(
                        np.asarray(stream, dtype=np.int64),
                        lambda segment: having_sketch(
                            pruner, keys_col[segment], values_col[segment],
                            segment, batch_size,
                        )[1:],
                        recover,
                    )
                    ids = concat_ids(outs)
                refetch_all = chaos is not None and chaos.passthrough
                candidates = set(
                    (keys_col if refetch_all else keys_col[ids]).tolist()
                )
            phases.append(sketch_pass)
            # Partial second pass: only entries of candidate keys re-stream.
            second = PhaseVolume("having-refetch")
            with registry.trace("having-refetch"):
                second.streamed = sum(1 for key, _ in data if key in candidates)
                second.forwarded = second.streamed
            phases.append(second)
            self._record_worker_shares(
                registry, sketch_pass.name, sketch_pass.streamed
            )
            self._record_worker_shares(registry, second.name, second.streamed)
            with registry.trace("master-complete"):
                output = set(
                    master_having(candidates, data, op.threshold, op.aggregate)
                )
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
        else:
            stream = PhaseVolume(
                "having-stream", streamed=len(data), forwarded=len(data)
            )
            phases.append(stream)
            self._record_worker_shares(registry, stream.name, len(data))
            with registry.trace("master-complete"):
                output = set(
                    master_having(
                        (key for key, _ in data), data, op.threshold, op.aggregate
                    )
                )
        for phase in phases:
            _record_phase(registry, phase)
        return RunResult(
            query=query.describe(),
            output=output,
            phases=phases,
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )

    # -- SKYLINE: stream + drain -------------------------------------------------

    def _run_skyline(
        self,
        query: Query,
        tables: TableMap,
        use_cheetah: bool,
        injector: Optional[FaultInjector] = None,
    ) -> RunResult:
        op = query.operator
        assert isinstance(op, SkylineOp)
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        matrix = point_matrix(table, list(op.columns))
        phase = PhaseVolume("skyline-stream")
        batch_size = self._batch_size(injector)
        registry = MetricsRegistry()
        pruner = None
        if use_cheetah:
            pruner = self._build_pruner(query, tables)
            self._maybe_validate(pruner)
            with registry.trace("skyline-stream"):
                if batch_size is None:
                    received = self._plain_skyline_stream(pruner, matrix, phase)
                elif injector is None:
                    phase.streamed, phase.forwarded, received = skyline_stream(
                        pruner, matrix, batch_size
                    )
                else:
                    chaos = _Chaos(injector, "skyline", pruner)
                    #: Segments streamed through the cache since its last wipe.
                    replay: List[np.ndarray] = []

                    def recover(event: FaultEvent) -> Tuple[str, str]:
                        # SKYLINE is not reboot-safe (Table 4): pruned
                        # points were dominated by *cached* points, so
                        # losing the cache before the FIN drain could lose
                        # their dominators from the master's view.
                        # Recovery re-streams every point processed since
                        # the last wipe through the fresh cache, behind
                        # the remainder (duplicates are superset-safe).
                        pruner.reboot()
                        chaos.requeue = concat_ids(replay)
                        replay.clear()
                        return (
                            "restart-replay",
                            f"; {len(chaos.requeue)} processed points "
                            "re-streamed through the fresh cache",
                        )

                    def kernel(segment: np.ndarray):
                        replay.append(segment)
                        return skyline_stream(pruner, matrix[segment], batch_size)[1:]

                    stream = injector.perturb_partition(
                        range(len(matrix)), injector.cursor, 0, phase.name
                    )
                    phase.streamed, phase.forwarded, outs = chaos.stream(
                        np.asarray(stream, dtype=np.int64),
                        kernel,
                        recover,
                        bypass=lambda segment: map(tuple, matrix[segment].tolist()),
                    )
                    received = [point for out in outs for point in out]
                drained = pruner.drain()
                received.extend(drained)
                phase.forwarded += len(drained)
        else:
            phase.streamed = phase.forwarded = len(matrix)
            received = list(map(tuple, matrix.tolist()))
        self._record_worker_shares(registry, phase.name, phase.streamed)
        with registry.trace("master-complete"):
            output = set(master_skyline(received))
        _record_phase(registry, phase)
        if pruner is not None:
            _absorb_pruner(registry, pruner, query=_op_kind(op), role="primary")
        return RunResult(
            query=query.describe(),
            output=output,
            phases=[phase],
            used_cheetah=use_cheetah,
            workers=self.workers,
            op_kind=_op_kind(op),
            metrics=registry,
        )


def _record_worker_volume(
    registry: MetricsRegistry,
    phase: str,
    worker: int,
    streamed: int,
    forwarded: int,
) -> None:
    """Account one worker's share of a phase's traffic."""
    registry.counter(
        "worker_entries_streamed_total",
        "Entries streamed by each worker per phase.",
        worker=worker,
        phase=phase,
    ).inc(streamed)
    registry.counter(
        "worker_entries_forwarded_total",
        "Entries forwarded by each worker per phase.",
        worker=worker,
        phase=phase,
    ).inc(forwarded)


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


def _op_kind(op) -> str:
    """Short operator-kind tag used by the cost model."""
    mapping = {
        CountOp: "filter",
        FilterOp: "filter",
        DistinctOp: "distinct",
        TopNOp: "topn",
        GroupByOp: "groupby",
        HavingOp: "having",
        JoinOp: "join",
        SkylineOp: "skyline",
    }
    return mapping[type(op)]
