"""The operator table: four plans that say what differs per operator.

Every Cheetah run has one shape — workers stream, the switch prunes, the
unmodified master completes, ``Q(A_Q(D)) == Q(D)`` — so one driver
(:meth:`Cluster._execute <repro.engine.cluster.Cluster>`) builds and
validates the pruner, leases or exports the columns, cuts shards, runs
them in-process or on the pool, and assembles the result.  A plan here
declares only the operator-specific rest:

* :meth:`OperatorPlan.sides` — the stream inputs after the operator's
  WHERE rule, and the key hash sharding must partition them on;
* :meth:`OperatorPlan.stream` — the shard kernel: the operator's ordered
  phases over ``(arrays, row_ids, batch_size, chaos)`` — the batch step
  (plus, for the single-pass plan only, the per-entry loop
  ``batch_size=None`` keeps) and the recovery a reboot-unsafe operator
  (:func:`repro.core.summary.is_reboot_safe`) takes when the switch
  loses its state;
* :meth:`OperatorPlan.complete` — the master's completion from the
  per-shard partials, including the phases only the master can add
  (``having-refetch``, ``join-rebuild``);
* :meth:`OperatorPlan.bypass` — what reaches the master when rows are
  forwarded unfiltered: the ``use_cheetah=False`` baseline, and the
  remainder of a chaos run once pruning has failed open.

A sequential run is the one-shard case; ``Cluster.run`` is the one-query
case of ``run_packed``.  :func:`render_plan_table` is the table
``docs/architecture.md`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.base import PruneDecision, Pruner
from ..core.distinct import DistinctPruner, FingerprintDistinctPruner
from ..core.filtering import FilterPruner
from ..core.groupby import GroupByPruner
from ..core.having import HavingPruner, master_having, second_pass
from ..core.join import JoinPruner
from ..core.skyline import SkylinePruner, master_skyline
from ..core.summary import is_reboot_safe
from ..core.topn import TopNDeterministicPruner, TopNRandomizedPruner
from ..errors import PlanError
from ..faults.injector import FaultInjector
from ..faults.plan import FaultEvent
from ..obs import MetricsRegistry
from ..switch.fuse import FusedProgram, plan_fused
from .dataplane import (
    RowIds,
    concat_ids,
    having_sketch,
    join_output,
    join_probe,
    merge_single_pass,
    point_matrix,
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
from .table import Table, split_bounds

CONTIGUOUS = "contiguous"
HASHED = "hash"


@dataclass
class Side:
    """One streamed input of a plan: a table's columns, or (SKYLINE)
    their float point matrix.  ``table`` is the object actually streamed
    — a fresh one after a WHERE mask.  ``key`` is the signature hash
    sharding partitions the rows on; ``None`` for keyless inputs, which
    only shard contiguously."""

    name: str
    table: Table
    columns: List[str]
    key: Optional[tuple] = None
    matrix: bool = False

    def arrays(self) -> Tuple[np.ndarray, ...]:
        """The arrays a shard kernel streams, over all of the side's rows."""
        if self.matrix:
            return (point_matrix(self.table, self.columns),)
        return tuple(self.table.column(name) for name in self.columns)


@dataclass
class Shard:
    """What a shard kernel runs with.  ``registry`` takes its spans: the
    live run registry in-process, a per-task one in a pool process.
    ``parts`` is how many worker partitions a single-pass shard accounts
    separately (the cluster's workers in-process, one on the pool)."""

    queries: Sequence[Query]
    columns: List[str]
    pruners: Sequence[Pruner]
    config: object
    registry: MetricsRegistry
    where: Optional[FilterPruner] = None
    parts: int = 1


#: Why a stage exhaustion may fail open, per operator.  HAVING is absent
#: on purpose: keys counted before the failure may never re-cross the
#: threshold, so it takes its refetch-all recovery instead.
_EXHAUST_DETAIL = {
    "join": "; remaining probes forward unfiltered",
    "skyline": "; cache intact and drains at FIN",
}


class Chaos:
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
        rows: Sequence[int],
        worker: int,
        phase: str,
        kernel: Callable,
        recover: Optional[Callable] = None,
        bypass: Callable = lambda segment: segment,
    ) -> Tuple[int, int, list]:
        """Drive ``rows`` through the link faults, one fault-free segment
        at a time.

        Link and worker faults reorder, repeat and replay the row ids
        first.  The injector then says how many entries may pass before
        the next switch event; the stream is split there, the due events
        are applied, and the segment runs through ``kernel(segment) ->
        (forwarded, out)`` as one batch stream — or, once passthrough has
        latched, through ``bypass(segment) -> out`` with every entry
        forwarded.  An event at global position ``k`` therefore still
        fires after entry ``k - 1`` and before entry ``k``.  Returns
        ``(streamed, forwarded, outs)``.
        """
        injector = self.injector
        ids = np.asarray(
            injector.perturb_partition(rows, injector.cursor, worker, phase),
            dtype=np.int64,
        )
        forwarded = position = 0
        outs = []
        while position < len(ids):
            count = len(ids) - position
            gap = injector.entries_until_event()
            if gap is not None:
                count = min(count, gap)
            for event in injector.advance(count):
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


def _global_ids(row_ids: RowIds, local: List[int]) -> np.ndarray:
    local = np.asarray(local, dtype=np.int64)
    return row_ids[local] if isinstance(row_ids, np.ndarray) else local + row_ids


def _payload_to_entry(op, columns: Sequence[str], payload: Tuple):
    """Map the streamed payload to the pruner's per-entry shape."""
    if isinstance(op, (CountOp, FilterOp)):
        return payload
    if isinstance(op, DistinctOp):
        if len(op.columns) == 1:
            return payload[columns.index(op.columns[0])]
        return tuple(payload[columns.index(c)] for c in op.columns)
    if isinstance(op, TopNOp):
        value = float(payload[columns.index(op.order_by)])
        # Ascending order ("bottom N") negates into the max-domain the
        # pruners are built for.
        return value if op.descending else -value
    if isinstance(op, GroupByOp):
        return (
            payload[columns.index(op.key)],
            float(payload[columns.index(op.value)]),
        )
    raise PlanError(f"no entry mapping for {type(op).__name__}")


class OperatorPlan:
    """One row of the operator table.

    The string attributes are the row as ``docs/architecture.md`` prints
    it; ``phases`` are the Cheetah-path phases in order, each with the
    pass it describes in ``explain()``.
    """

    name = ""
    inputs = layout = recovery = baseline = ""
    phases: Tuple[Tuple[str, str], ...] = ()
    #: The master's completion, per operator kind the plan covers.
    completion: Dict[str, str] = {}
    #: The one phase of a ``use_cheetah=False`` run that forwards every
    #: row (:meth:`bypass`); ``None``: the baseline is the same stream
    #: through a passthrough pruner.
    baseline_phase: Optional[str] = None
    #: The kernel traces its own phases; otherwise the driver wraps the
    #: shard execution in the first phase's span.
    self_traced = False
    #: Hashing is the only sound layout (a key split across shards loses
    #: outputs), not merely the default one.
    hash_required = False

    def pruner(
        self, query: Query, cfg, columns: Optional[Sequence[str]] = None
    ) -> Pruner:
        """Instantiate the operator's pruner from ``cfg``'s parameters."""
        raise NotImplementedError

    def where_stage(
        self, query: Query, columns: Sequence[str], cfg
    ) -> Optional[FilterPruner]:
        """The packed WHERE stage in front of the pruner, if any."""
        return None

    def keyed(self, op, topn_randomized: bool) -> bool:
        """Whether the operator's pruner state is keyed, so hash sharding
        keeps a key's entries on one shard."""
        return self.hash_required

    def sides(self, queries: Sequence[Query], tables) -> List[Side]:
        """The stream inputs, after the operator's WHERE rule."""
        raise NotImplementedError

    def stream(
        self,
        shard: Shard,
        arrays: Sequence[np.ndarray],
        row_ids: Sequence[RowIds],
        batch_size: Optional[int],
        chaos: Optional[Chaos] = None,
    ) -> dict:
        """Run the operator's phases over one shard's rows.

        ``arrays`` are the sides' arrays cut to the shard, ``row_ids``
        one :data:`RowIds` per side.  Returns the shard's partial:
        ``volumes`` (``(streamed, forwarded)`` per phase of
        :attr:`phases` the kernel ran), ``out`` (what the master
        receives) and any operator-specific flags.
        """
        raise NotImplementedError

    def complete(
        self,
        shard: Shard,
        sides: Sequence[Side],
        partials: Sequence[dict],
        index: int,
    ) -> Tuple[object, List[Tuple[str, int, int]]]:
        """Query ``index``'s output from the per-shard partials (in shard
        order), plus the phases completion itself streamed, each as
        ``(name, streamed, forwarded)``."""
        raise NotImplementedError

    def bypass(self, arrays: Sequence[np.ndarray], ids: np.ndarray):
        """What the master receives when rows ``ids`` forward unfiltered."""
        return ids


class _SinglePass(OperatorPlan):
    name = "single-pass"
    inputs = (
        "the columns of N >= 1 queries over one table (`run` is N = 1, "
        "`run_packed` names the phase `packed-stream`); WHERE is a packed "
        "stage before a stateful pruner"
    )
    layout = (
        "contiguous; hash-by-key for DISTINCT, GROUP BY and randomized TOP N"
    )
    phases = (("stream", "one streaming pass"),)
    recovery = "reboot-safe: continue from empty state"
    completion = {
        "filter": "re-check the full WHERE on survivors (late materialization "
        "fetch follows)",
        "distinct": "drop remaining duplicates with an exact hash set",
        "topn": "exact top-N over survivors with an N-sized heap",
        "groupby": "recompute the MIN/MAX aggregate per surviving key",
    }
    baseline = "the same stream through a passthrough pruner"

    def keyed(self, op, topn_randomized):
        return shard_key(op) is not None and (
            topn_randomized or not isinstance(op, TopNOp)
        )

    def pruner(self, query, cfg, columns=None):
        op = query.operator
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
                    n=op.n, rows=cfg.topn_rows, seed=cfg.seed
                )
            return TopNDeterministicPruner(n=op.n)
        return GroupByPruner(
            aggregate=op.aggregate, rows=cfg.groupby_rows, seed=cfg.seed
        )

    def where_stage(self, query, columns, cfg):
        # A WHERE-violating row must not reach a stateful pruner (it could
        # shadow a passing row in a DISTINCT/GROUP BY cache).  A fully
        # switch-supported WHERE filters exactly; unsupported predicates
        # require worker assist (the CWorker computes them and ships the
        # result bit, §4.1) — without it we refuse rather than risk a
        # wrong answer.  Filters fold their WHERE into the formula.
        op = query.operator
        if query.where is None or isinstance(op, (CountOp, FilterOp)):
            return None
        formula = query.where.to_formula(columns)
        has_unsupported = any(not atom.supported for atom in formula.atoms())
        if has_unsupported and not cfg.worker_assist_filters:
            raise PlanError(
                "WHERE contains switch-unsupported predicates before a stateful "
                "operator; enable ClusterConfig.worker_assist_filters"
            )
        return FilterPruner(formula, worker_assist=cfg.worker_assist_filters)

    def sides(self, queries, tables):
        op = queries[0].operator
        columns: List[str] = []
        for query in queries:
            for column in query.stream_columns():
                if column not in columns:
                    columns.append(column)
        return [Side(op.table, tables[op.table], columns, shard_key(op))]

    def stream(self, shard, arrays, row_ids, batch_size, chaos=None):
        (row_ids,) = row_ids
        queries, columns, pruners = shard.queries, shard.columns, shard.pruners
        if batch_size is not None:
            step = FusedProgram(
                plan_fused(queries, columns), pruners, shard.where,
                shard.registry, shard.config.fused_trace_sample,
            ).run_batch
        # One stream per worker partition (Table.partition's split), so
        # link faults and per-worker volumes land on the right worker.
        bounds = split_bounds(len(arrays[0]), shard.parts)
        workers: List[Tuple[int, int]] = []
        per_query: List[List[np.ndarray]] = [[] for _ in queries]
        for worker in range(shard.parts):
            lo, hi = int(bounds[worker]), int(bounds[worker + 1])
            part = [a[lo:hi] for a in arrays]
            base = (
                row_ids[lo:hi] if isinstance(row_ids, np.ndarray) else row_ids + lo
            )
            if batch_size is None:
                streamed, forwarded, ids = self._plain(shard, part, base)
            elif chaos is None:
                streamed, forwarded, ids = stream_batches(
                    step, part, base, batch_size, len(queries)
                )
            else:

                def kernel(segment: np.ndarray):
                    local = segment - base
                    _, kept, out = stream_batches(
                        step, [a[local] for a in part], segment, batch_size
                    )
                    return kept, out[0]

                streamed, forwarded, outs = chaos.stream(
                    range(base, base + hi - lo), worker, "stream", kernel
                )
                ids = [concat_ids(outs)]
            workers.append((streamed, forwarded))
            for kept, chunk in zip(per_query, ids):
                kept.append(chunk)
        return {
            "volumes": [tuple(sum(column) for column in zip(*workers))],
            "workers": workers,
            "out": [concat_ids(kept) for kept in per_query],
            # Under faults the same row can arrive twice (duplicated
            # packets, a crashed worker's replay): the master dedups.
            "dedup": chaos is not None,
        }

    @staticmethod
    def _plain(shard: Shard, part: Sequence[np.ndarray], base: RowIds):
        """The ``batch_size=None`` loop: one ``process()`` call per entry."""
        columns, where = shard.columns, shard.where
        lanes = [(q.operator, p, []) for q, p in zip(shard.queries, shard.pruners)]
        forwarded = 0
        for offset in range(len(part[0])):
            payload = tuple(array[offset] for array in part)
            # The packed filter stage (§6) runs first, so WHERE-violating
            # rows never pollute the stateful operator's caches.
            if where is not None and where.process(payload) is PruneDecision.PRUNE:
                continue
            any_forward = False
            for op, pruner, survivors in lanes:
                entry = _payload_to_entry(op, columns, payload)
                if pruner.process(entry) is PruneDecision.FORWARD:
                    any_forward = True
                    survivors.append(offset)
            forwarded += any_forward
        return (
            len(part[0]),
            forwarded,
            [_global_ids(base, survivors) for _, _, survivors in lanes],
        )

    def complete(self, shard, sides, partials, index):
        query, table = shard.queries[index], sides[0].table
        return merge_single_pass(
            query,
            [
                single_pass_partial(
                    query, shard.columns, table, p["out"][index], p["dedup"]
                )
                for p in partials
            ],
        ), []


class _Join(OperatorPlan):
    name = "JOIN"
    inputs = (
        "the key column of each table; a WHERE is refused (filter the table "
        "first)"
    )
    layout = "hash, the same hash on both sides (required)"
    phases = (
        ("join-build", "key columns of both tables build the Bloom filters"),
        ("join-probe", "pruning pass: each side probes the other side's filter"),
    )
    self_traced = True  # build feeds probe inside one shard task
    recovery = (
        "reboot mid-build restarts the build; mid-probe `degrade_policy` "
        "re-streams the build (`join-rebuild`) or forwards the remaining probes"
    )
    completion = {"join": "exact hash join over the surviving keys of both sides"}
    baseline = "`join-stream`: both key columns forwarded whole"
    baseline_phase = "join-stream"
    hash_required = True

    def pruner(self, query, cfg, columns=None):
        op = query.operator
        return JoinPruner(
            left=op.table,
            right=op.right_table,
            memory_bits=cfg.join_memory_bits,
            variant=cfg.join_variant,
            seed=cfg.seed,
        )

    def sides(self, queries, tables):
        (query,) = queries
        op = query.operator
        if query.where is not None:
            raise PlanError(
                "pre-filtered JOIN is not modeled; filter the table first"
            )
        return [
            Side(op.table, tables[op.table], [op.left_on], ("column", op.left_on)),
            Side(
                op.right_table,
                tables[op.right_table],
                [op.right_on],
                ("column", op.right_on),
            ),
        ]

    def stream(self, shard, arrays, row_ids, batch_size, chaos=None):
        op, (pruner,) = shard.queries[0].operator, shard.pruners
        (left_col, right_col), (left_ids, right_ids) = arrays, row_ids
        total = len(left_col) + len(right_col)
        rebuilt = 0

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
            nonlocal rebuilt
            if during == "build":
                pruner.reboot()
                pruner.build(left_col, right_col)
                rebuilt += total
                return (
                    "rebuild-build",
                    " during the build pass; both key columns re-streamed",
                )
            # Health gauges survive a reboot (the controller keeps
            # metrics), so capture the fill ratio before the wipe.
            pruner.observe_health()
            fill = max(f.fill_ratio() for f in pruner._filters.values())
            action = shard.config.degrade_policy
            if action == "auto":
                action = "passthrough" if fill > 0.5 else "rebuild"
            pruner.reboot()
            detail = f" during probe; bloom fill {fill:.3f} — "
            if action == "rebuild":
                pruner.build(left_col, right_col)
                rebuilt += total
                return action, detail + "build pass re-streamed"
            chaos.passthrough = True
            return action, detail + "remaining probes forward unfiltered"

        with shard.registry.trace("join-build"):
            pruner.build(left_col, right_col)
            if chaos is not None:
                # Build-pass entries advance the fault cursor in one
                # step; a reboot/bitflip inside the span restarts the
                # whole build (re-streamed traffic lands on rebuild).
                for event in chaos.injector.advance(total):
                    chaos.apply(event, partial(recover, during="build"))

        def probe_segment(segment: np.ndarray):
            # A perturbed segment can mix sides; each run of one side
            # probes the other side's filter as one batch stream.
            forwarded, chunks = 0, []
            cuts = np.flatnonzero(np.diff(segment >= right_ids)) + 1
            for run in filter(len, np.split(segment, cuts)):
                side, column, base = (
                    (op.right_table, right_col, right_ids) if run[0] >= right_ids
                    else (op.table, left_col, left_ids)
                )
                _, kept, ids = join_probe(
                    pruner, side, column[run - base], run, batch_size
                )
                forwarded += kept
                chunks.append(ids)
            return forwarded, concat_ids(chunks)

        with shard.registry.trace("join-probe"):
            streamed = total
            if chaos is None:
                _, left_kept, left_out = join_probe(
                    pruner, op.table, left_col, left_ids, batch_size
                )
                _, right_kept, right_out = join_probe(
                    pruner, op.right_table, right_col, right_ids, batch_size
                )
                forwarded = left_kept + right_kept
                ids = concat_ids([left_out, right_out])
            else:
                streamed, forwarded, outs = chaos.stream(
                    range(total), 0, "join-probe", probe_segment,
                    partial(recover, during="probe"),
                )
                ids = np.unique(concat_ids(outs))  # replayed probes dedup
        return {
            "volumes": [(total, 0), (streamed, forwarded)],
            "rebuilt": rebuilt,
            "out": ids,
        }

    def complete(self, shard, sides, partials, index):
        (left_col,), (right_col,) = sides[0].arrays(), sides[1].arrays()
        #: Probe row ids: the left table's rows, then the right table's.
        split = len(left_col)
        ids = concat_ids([p["out"] for p in partials])
        output = join_output(
            left_col[ids[ids < split]].tolist(),
            right_col[ids[ids >= split] - split].tolist(),
        )
        rebuilt = sum(p.get("rebuilt", 0) for p in partials)
        return output, [("join-rebuild", rebuilt, 0)] if rebuilt else []


class _Having(OperatorPlan):
    name = "HAVING"
    inputs = "the key and value columns of the WHERE-masked table"
    layout = "hash by key (required)"
    phases = (
        ("having-sketch", "Count-Min sketch pass"),
        ("having-refetch", "partial refetch of candidate keys"),
    )
    recovery = "refetch-all: every key becomes a candidate for the second pass"
    completion = {
        "having": "partial second pass: exact totals for candidate keys only"
    }
    baseline = "`having-stream`: every row forwarded, every key a candidate"
    baseline_phase = "having-stream"
    hash_required = True

    def pruner(self, query, cfg, columns=None):
        op = query.operator
        return HavingPruner(
            threshold=op.threshold,
            aggregate=op.aggregate,
            width=cfg.having_width,
            seed=cfg.seed,
        )

    def sides(self, queries, tables):
        (query,) = queries
        op = query.operator
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        return [Side(op.table, table, [op.key, op.value], shard_key(op))]

    def stream(self, shard, arrays, row_ids, batch_size, chaos=None):
        (pruner,), (keys, values), (row_ids,) = shard.pruners, arrays, row_ids

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

        if chaos is None:
            streamed, forwarded, ids = having_sketch(
                pruner, keys, values, row_ids, batch_size
            )
        else:
            streamed, forwarded, outs = chaos.stream(
                range(len(keys)), 0, "having-sketch",
                lambda segment: having_sketch(
                    pruner, keys[segment], values[segment], segment, batch_size
                )[1:],
                recover,
            )
            ids = concat_ids(outs)
        return {
            "volumes": [(streamed, forwarded)],
            "out": ids,
            "refetch_all": chaos is not None and chaos.passthrough,
        }

    def complete(self, shard, sides, partials, index):
        op = shard.queries[0].operator
        keys, values = sides[0].arrays()
        if not shard.pruners:
            # A baseline has no second pass: everything streamed already.
            output = master_having(None, (keys, values), op.threshold, op.aggregate)
            return set(output), []
        # Partial second pass: only entries of candidate keys re-stream
        # (every entry once a recovery made every key a candidate).
        candidates = None
        if not any(p.get("refetch_all") for p in partials):
            candidates = np.unique(keys[concat_ids([p["out"] for p in partials])])
        with shard.registry.trace("having-refetch"):
            output, refetch = second_pass(
                candidates, keys, values, op.threshold, op.aggregate
            )
        return set(output), [("having-refetch", refetch, refetch)]


class _Skyline(OperatorPlan):
    name = "SKYLINE"
    inputs = (
        "the dimension columns of the WHERE-masked table as one float point "
        "matrix"
    )
    layout = "contiguous replicas, each drained at FIN"
    phases = (
        ("skyline-stream", "stream + FIN drain of the switch-resident points"),
    )
    recovery = (
        "restart-replay: points seen since the last wipe re-stream through "
        "the fresh cache"
    )
    completion = {"skyline": "exact skyline over forwarded + drained points"}
    baseline = "`skyline-stream`: every point forwarded"
    baseline_phase = "skyline-stream"

    def pruner(self, query, cfg, columns=None):
        return SkylinePruner(
            dims=len(query.operator.columns), score=cfg.skyline_score
        )

    def sides(self, queries, tables):
        (query,) = queries
        op = query.operator
        table = tables[op.table]
        if query.where is not None:
            table = table.mask(query.where.mask(table))
        return [Side(op.table, table, list(op.columns), matrix=True)]

    def bypass(self, arrays, ids):
        return arrays[0][ids]

    def stream(self, shard, arrays, row_ids, batch_size, chaos=None):
        (pruner,), (matrix,) = shard.pruners, arrays
        if chaos is None:
            streamed, forwarded, received = skyline_stream(pruner, matrix, batch_size)
            outs = [received]
        else:
            #: Segments streamed through the cache since its last wipe.
            replay: List[np.ndarray] = []

            def recover(event: FaultEvent) -> Tuple[str, str]:
                # SKYLINE is not reboot-safe (Table 4): pruned points
                # were dominated by *cached* points, so losing the cache
                # before the FIN drain could lose their dominators from
                # the master's view.  Recovery re-streams every point
                # processed since the last wipe through the fresh cache,
                # behind the remainder (duplicates are superset-safe).
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

            streamed, forwarded, outs = chaos.stream(
                range(len(matrix)), 0, "skyline-stream", kernel, recover,
                bypass=partial(self.bypass, arrays),
            )
        drained = pruner.drain()
        outs.append(np.array(drained, dtype=np.float64).reshape(-1, matrix.shape[1]))
        return {
            "volumes": [(streamed, forwarded + len(drained))],
            "out": np.concatenate(outs),
        }

    def complete(self, shard, sides, partials, index):
        received = np.concatenate([p["out"] for p in partials])
        return set(master_skyline(received)), []


def shard_key(op) -> Optional[tuple]:
    """The signature of the key hash sharding partitions ``op``'s rows on.

    GROUP BY and HAVING over the same key column share a signature (and
    therefore a cached shard plan): both partition on that column.
    """
    if isinstance(op, DistinctOp):
        return ("distinct", tuple(op.columns))
    if isinstance(op, TopNOp):
        return ("column", op.order_by)
    if isinstance(op, (GroupByOp, HavingOp)):
        return ("column", op.key)
    return None


SINGLE_PASS, JOIN, HAVING, SKYLINE = _SinglePass(), _Join(), _Having(), _Skyline()

#: The operator table: operator type -> ``(kind tag, plan)``.
OPERATORS: Dict[type, Tuple[str, OperatorPlan]] = {
    CountOp: ("filter", SINGLE_PASS),
    FilterOp: ("filter", SINGLE_PASS),
    DistinctOp: ("distinct", SINGLE_PASS),
    TopNOp: ("topn", SINGLE_PASS),
    GroupByOp: ("groupby", SINGLE_PASS),
    JoinOp: ("join", JOIN),
    HavingOp: ("having", HAVING),
    SkylineOp: ("skyline", SKYLINE),
}


def plan_for(op) -> Tuple[str, OperatorPlan]:
    """``(kind, plan)`` for an operator: the table lookup every layer
    uses instead of dispatching on operator types."""
    try:
        return OPERATORS[type(op)]
    except KeyError:
        raise PlanError(f"no operator plan for {type(op).__name__}") from None


def resolve_policy(op, topn_randomized: bool) -> str:
    """The shard layout an operator runs with.

    Hash for keyed stateful operators (and always for JOIN and HAVING,
    whose Bloom/Count-Min state is only correct when each key lives on
    one shard); contiguous replicas for keyless operators (filter/COUNT,
    deterministic TOP N, SKYLINE) — they have no key to hash and any row
    layout is correct for their replicas.
    """
    _, plan = plan_for(op)
    return HASHED if plan.keyed(op, topn_randomized) else CONTIGUOUS


def render_plan_table() -> List[str]:
    """The operator table as markdown rows, one per plan."""
    header = (
        "plan", "inputs", "shard layout", "phases", "recovery", "completion",
        "baseline",
    )
    rows = [
        (
            f"{plan.name} ({', '.join(plan.completion)})",
            plan.inputs,
            plan.layout,
            "; ".join(f"`{name}` — {what}" for name, what in plan.phases),
            plan.recovery,
            "; ".join(plan.completion.values()),
            plan.baseline,
        )
        for plan in (SINGLE_PASS, JOIN, HAVING, SKYLINE)
    ]
    lines = ["| " + " | ".join(header) + " |", "|" + " --- |" * len(header)]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return lines
