"""The parent side of the process-parallel dataplane.

:func:`run_parallel` mirrors the sequential run paths phase for phase —
same phase names, same span names, same counter families — while the
actual pruning happens in a pool of shard processes:

1. **partition** — export the streamed columns to shared memory once
   (:class:`~repro.parallel.shm.SharedColumnStore`) and plan shard
   ownership (:mod:`repro.parallel.shard`): contiguous worker-partition
   bounds or multiswitch hash-partition index arrays.
2. **stream** — submit one task per shard; as futures finish, the
   master *immediately* does the per-shard part of completion (gather
   survivor rows, evaluate predicates, extract entries) instead of
   waiting for a global barrier.  JOIN needs no barrier at all: each
   shard's Bloom build feeds its own probe inside the task.
3. **master-complete** — merge the per-shard partials in shard order
   (survivors are deterministically ordered by ``(shard, row_id)``) and
   fold every shard's metrics snapshot into the run registry
   (counters summed, gauges labeled per shard), so
   :meth:`RunResult.report` is shape-identical to a sequential run.

Worker crashes (``BrokenProcessPool``) degrade to
:class:`~repro.errors.SharedMemoryUnavailable`, which the cluster
catches and reruns sequentially; ordinary exceptions from shard code
propagate unchanged.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.having import master_having
from ..core.skyline import master_skyline
from ..engine.dataplane import (
    join_output,
    merge_single_pass,
    point_matrix,
    single_pass_partial,
)
from ..engine.plan import HavingOp, JoinOp, Query, SkylineOp
from ..engine.table import Table
from ..errors import PlanError, ShardTimeout, SharedMemoryUnavailable
from ..obs import MetricsRegistry
from ..obs.tracing import current_context
from . import shard as shard_mod
from . import worker
from .shm import SharedColumnStore

#: Batch size shard processes stream in when ``ClusterConfig.batch_size``
#: is unset (the sequential default of ``None`` means scalar streaming,
#: which would waste the fan-out).
DEFAULT_BATCH = 65536

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def _shutdown_pools() -> None:
    for pool in _POOLS.values():
        pool.shutdown(wait=False, cancel_futures=True)
    _POOLS.clear()


atexit.register(_shutdown_pools)


def get_pool(processes: int) -> ProcessPoolExecutor:
    """A cached process pool of exactly ``processes`` workers.

    ``fork`` is preferred (no interpreter re-import per worker); the
    pool is reused across runs at the same parallelism, so repeated
    benchmark repetitions pay the spawn cost once.
    """
    pool = _POOLS.get(processes)
    if pool is None:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        pool = ProcessPoolExecutor(max_workers=processes, mp_context=context)
        _POOLS[processes] = pool
    return pool


def _child_config(cluster, shard: int):
    """The config a shard process rebuilds its pruner from."""
    return replace(
        cluster.config,
        seed=shard_mod.derive_shard_seed(cluster.config.seed, shard),
        fault_plan=None,
        parallelism=1,
        validate_resources=False,
    )


def _batch_size(cluster) -> int:
    return cluster.config.batch_size or DEFAULT_BATCH


def _acquire_resident(cluster, needed: Dict[str, Table]):
    """Lease the cluster's resident store when it covers this run.

    ``needed`` maps table names to the exact :class:`Table` objects the
    run streams; identity mismatch (a swapped or WHERE-masked table) or
    a retired store returns ``None`` — the per-run export path, never a
    mixed-version read.  The caller must ``release()`` the lease.
    """
    store = getattr(cluster, "resident", None)
    if store is None:
        return None
    for name, table in needed.items():
        if not store.owns(name, table):
            return None
    if not store.acquire():
        return None
    return store


def _attach_trace(specs: Sequence[dict]) -> None:
    """Stamp the active trace context into every shard task spec.

    Call this *inside* the phase span that logically contains the shard
    work (e.g. ``stream``), so shard-recorded spans re-parent under that
    phase when :func:`MetricsRegistry.absorb_sharded` folds them back.
    No active context (tracing off) leaves the specs untouched.
    """
    context = current_context()
    if context is not None:
        payload = context.to_dict()
        for spec in specs:
            spec["trace"] = payload


def _emit_event(cluster, kind: str, message: str, **labels) -> None:
    """Emit a structured engine event when the cluster carries a log."""
    events = getattr(cluster, "events", None)
    if events is not None:
        events.emit(kind, message, source="parallel", severity="warning", **labels)


def _gather(
    cluster,
    specs: Sequence[dict],
    task,
    registry: MetricsRegistry,
    on_result: Optional[Callable[[dict], None]] = None,
) -> Dict[int, dict]:
    """Run shard tasks with crash and timeout guardrails.

    Results are *gathered* in completion order (``on_result`` is the
    pipelining hook — per-shard post-processing runs while other shards
    are still streaming) but always *merged* in shard order by the
    caller.  Two recovery paths wrap the plain scatter:

    * **pool respawn** — a ``BrokenProcessPool`` (a crashed worker kills
      the whole executor) shuts the cached pool down, spawns a fresh one
      ONCE (``pool_respawns_total``), and resubmits every unfinished
      shard on it; only a second crash degrades to
      :class:`SharedMemoryUnavailable` (the caller's sequential
      fallback).
    * **shard timeout** — with :attr:`ClusterConfig.shard_timeout` set,
      a shard that exceeds its deadline is retried once on the pool
      (``shard_timeouts_total{outcome="retried"}``), then run
      sequentially in the parent (``outcome="sequential"``) so one
      wedged worker cannot stall the whole request.  Each expiry emits
      a ``shard-timeout`` event; an abandoned task keeps occupying its
      pool slot until it dies, which is the price of not being able to
      cancel a running process task.
    """
    processes = cluster.config.parallelism
    timeout = cluster.config.shard_timeout
    results: Dict[int, dict] = {}
    #: future -> (spec, absolute deadline or None, already retried?)
    pending: Dict[object, tuple] = {}
    pool = get_pool(processes)
    respawned = False

    def harvest(result: dict) -> None:
        shard = result["shard"]
        if shard not in results:
            results[shard] = result
            if on_result is not None:
                on_result(result)

    def respawn_or_raise(exc: BrokenProcessPool) -> List[tuple]:
        # One recovery point for both ways a dead pool shows up: a
        # harvested future raising, or pool.submit raising synchronously
        # (the pool marks itself broken the moment any worker dies, so a
        # fast crash surfaces on the NEXT submit of the scatter loop).
        nonlocal pool, respawned
        _shutdown_pools()
        if respawned:
            raise SharedMemoryUnavailable(
                f"shard pool died twice: {exc}"
            ) from exc
        respawned = True
        registry.counter(
            "pool_respawns_total",
            "Process pools respawned after a BrokenProcessPool crash.",
        ).inc()
        _emit_event(
            cluster,
            "pool-respawn",
            "shard pool died; respawned once and retrying the batch",
            processes=str(processes),
        )
        pool = get_pool(processes)
        pending.clear()  # dead-pool futures; late results are ignored
        return [(s, False) for s in specs if s["shard"] not in results]

    #: (spec, already retried?) waiting for a pool slot.
    queue: List[tuple] = [(spec, False) for spec in specs]
    while queue or pending:
        while queue:
            spec, retried = queue.pop(0)
            deadline = None if timeout is None else time.monotonic() + timeout
            try:
                pending[pool.submit(task, spec)] = (spec, deadline, retried)
            except BrokenProcessPool as exc:
                queue = respawn_or_raise(exc)
        wait_s = None
        if timeout is not None:
            deadlines = [d for (_, d, _) in pending.values() if d is not None]
            if deadlines:
                wait_s = max(0.0, min(deadlines) - time.monotonic())
        done, _ = wait(list(pending), timeout=wait_s, return_when=FIRST_COMPLETED)
        broken: Optional[BrokenProcessPool] = None
        for future in done:
            spec, _, _ = pending.pop(future)
            try:
                harvest(future.result())
            except BrokenProcessPool as exc:
                broken = exc
        if broken is not None:
            queue = respawn_or_raise(broken)
            continue
        if timeout is None:
            continue
        now = time.monotonic()
        for future, (spec, deadline, retried) in list(pending.items()):
            if deadline is None or now < deadline or future.done():
                continue
            del pending[future]  # abandoned; a late result is ignored
            shard = spec["shard"]
            outcome = "sequential" if retried else "retried"
            registry.counter(
                "shard_timeouts_total",
                "Shard tasks that exceeded the per-shard timeout.",
                outcome=outcome,
            ).inc()
            _emit_event(
                cluster,
                "shard-timeout",
                f"shard {shard} exceeded {timeout:.3f}s; "
                + ("running sequentially in the parent" if retried
                   else "retrying once on the pool"),
                shard=str(shard),
                outcome=outcome,
            )
            if not retried:
                queue.append((spec, True))
                continue
            try:
                harvest(task(spec))
            except Exception as exc:
                raise ShardTimeout(
                    f"shard {shard} timed out twice and the in-process "
                    f"fallback failed: {exc}",
                    shard,
                ) from exc
    return results


def run_parallel(cluster, query: Query, tables) -> "RunResult":
    """Execute ``query`` across ``ClusterConfig.parallelism`` processes.

    Raises :class:`SharedMemoryUnavailable` when the fan-out cannot run
    (no shared memory, crashed pool) — the caller falls back to the
    sequential path; every other exception is a real error.
    """
    op = query.operator
    policy = shard_mod.resolve_policy(
        op, cluster.config.shard_policy, cluster.config.topn_randomized
    )
    try:
        if isinstance(op, JoinOp):
            return _run_join(cluster, query, tables)
        if isinstance(op, HavingOp):
            return _run_having(cluster, query, tables)
        if isinstance(op, SkylineOp):
            return _run_skyline(cluster, query, tables)
        return _run_single_pass(cluster, query, tables, policy)
    except BrokenProcessPool as exc:
        _shutdown_pools()
        raise SharedMemoryUnavailable(f"shard pool died: {exc}") from exc


# -- single-pass operators ---------------------------------------------------


def _run_single_pass(cluster, query: Query, tables, policy: str) -> "RunResult":
    from ..engine.cluster import (
        PhaseVolume,
        RunResult,
        _op_kind,
        _record_phase,
        _record_worker_volume,
    )

    op = query.operator
    table = tables[op.table]
    columns = query.stream_columns()
    kind = _op_kind(op)
    shards = cluster.config.parallelism
    # Validate resources (and WHERE supportability) once, up front — the
    # same failures the sequential path would surface before streaming.
    cluster._maybe_validate(cluster._build_pruner(query, tables))
    cluster._build_where_stage(query, columns)
    registry = MetricsRegistry()
    resident = _acquire_resident(cluster, {op.table: table})
    ephemeral: Optional[SharedColumnStore] = None
    phase = PhaseVolume("stream")
    partials: Dict[int, object] = {}
    try:
        with registry.trace("partition"):
            layouts: List[tuple] = []
            if resident is not None:
                # Resident fast path: columns and hash plans were (or
                # are now, once) exported for the table's lifetime.
                handle = dict(resident.column_entries(op.table, columns))
                if policy == shard_mod.HASHED:
                    entries = resident.plan_entries(
                        op.table,
                        shard_mod.shard_key_signature(op),
                        shards,
                        lambda: shard_mod.cached_hash_plan(op, table, shards),
                    )
                    for k, entry in enumerate(entries):
                        handle[f"__shard_idx_{k}"] = entry
                        layouts.append(("index", f"__shard_idx_{k}"))
                else:
                    bounds = table.partition_bounds(shards)
                    layouts = [
                        ("bounds", int(bounds[k]), int(bounds[k + 1]))
                        for k in range(shards)
                    ]
            else:
                export = {name: table.column(name) for name in columns}
                if policy == shard_mod.HASHED:
                    plan = shard_mod.cached_hash_plan(op, table, shards)
                    for k, index in enumerate(plan):
                        export[f"__shard_idx_{k}"] = index
                        layouts.append(("index", f"__shard_idx_{k}"))
                else:
                    bounds = table.partition_bounds(shards)
                    layouts = [
                        ("bounds", int(bounds[k]), int(bounds[k + 1]))
                        for k in range(shards)
                    ]
                ephemeral = SharedColumnStore(export)
                handle = ephemeral.handle()
        specs = [
            {
                "shard": k,
                "handle": handle,
                "resident": resident.token if resident is not None else None,
                "query": query,
                "config": _child_config(cluster, k),
                "columns": columns,
                "layout": layouts[k],
                "batch": _batch_size(cluster),
            }
            for k in range(shards)
        ]
        with registry.trace("stream"):
            _attach_trace(specs)

            def pipelined(result: dict) -> None:
                # Pipelined completion: reduce this shard's survivors
                # while other shards are still streaming.
                partials[result["shard"]] = single_pass_partial(
                    query, columns, table, result["survivors"]
                )

            results = _gather(
                cluster,
                specs,
                worker.run_single_pass_shard,
                registry,
                on_result=pipelined,
            )
    finally:
        if ephemeral is not None:
            ephemeral.close()
        if resident is not None:
            resident.release()
    for k in range(shards):
        phase.streamed += results[k]["streamed"]
        phase.forwarded += results[k]["forwarded"]
        _record_worker_volume(
            registry, phase.name, k, results[k]["streamed"], results[k]["forwarded"]
        )
        registry.absorb_sharded(MetricsRegistry.from_dict(results[k]["metrics"]), k)
    with registry.trace("master-complete"):
        output = merge_single_pass(query, [partials[k] for k in range(shards)])
    _record_phase(registry, phase)
    return RunResult(
        query=query.describe(),
        output=output,
        phases=[phase],
        used_cheetah=True,
        workers=cluster.workers,
        op_kind=kind,
        metrics=registry,
    )


# -- JOIN --------------------------------------------------------------------


def _run_join(cluster, query: Query, tables) -> "RunResult":
    from ..engine.cluster import PhaseVolume, RunResult, _record_phase

    op = query.operator
    if query.where is not None:
        raise PlanError("pre-filtered JOIN is not modeled; filter the table first")
    left_table = tables[op.table]
    right_table = tables[op.right_table]
    left_col = left_table.column(op.left_on)
    right_col = right_table.column(op.right_on)
    shards = cluster.config.parallelism
    registry = MetricsRegistry()
    resident = _acquire_resident(
        cluster, {op.table: left_table, op.right_table: right_table}
    )
    ephemeral: Optional[SharedColumnStore] = None
    try:
        # Both key columns shard by the SAME hash, so a key's build
        # entries and probe entries meet on one shard's Bloom filter.
        if resident is not None:
            handle = {
                "left": resident.column_entries(op.table, [op.left_on])[
                    op.left_on
                ],
                "right": resident.column_entries(op.right_table, [op.right_on])[
                    op.right_on
                ],
            }
            left_entries = resident.plan_entries(
                op.table,
                ("column", op.left_on),
                shards,
                lambda: shard_mod.cached_column_plan(left_col, shards),
            )
            right_entries = resident.plan_entries(
                op.right_table,
                ("column", op.right_on),
                shards,
                lambda: shard_mod.cached_column_plan(right_col, shards),
            )
            for k in range(shards):
                handle[f"__left_idx_{k}"] = left_entries[k]
                handle[f"__right_idx_{k}"] = right_entries[k]
        else:
            export: Dict[str, np.ndarray] = {
                "left": left_col,
                "right": right_col,
            }
            left_shards = shard_mod.cached_column_plan(left_col, shards)
            right_shards = shard_mod.cached_column_plan(right_col, shards)
            for k in range(shards):
                export[f"__left_idx_{k}"] = left_shards[k]
                export[f"__right_idx_{k}"] = right_shards[k]
            ephemeral = SharedColumnStore(export)
            handle = ephemeral.handle()
        specs = [
            {
                "shard": k,
                "handle": handle,
                "resident": resident.token if resident is not None else None,
                "query": query,
                "config": _child_config(cluster, k),
                "left_index": f"__left_idx_{k}",
                "right_index": f"__right_idx_{k}",
                "batch": _batch_size(cluster),
            }
            for k in range(shards)
        ]
        _attach_trace(specs)
        results = _gather(cluster, specs, worker.run_join_shard, registry)
    finally:
        if ephemeral is not None:
            ephemeral.close()
        if resident is not None:
            resident.release()
    total = len(left_col) + len(right_col)
    build = PhaseVolume("join-build", streamed=total)
    probe = PhaseVolume("join-probe", streamed=total)
    left_keys: List = []
    right_keys: List = []
    for k in range(shards):
        probe.forwarded += results[k]["forwarded"]
        left_keys.extend(left_col[results[k]["left_survivors"]].tolist())
        right_keys.extend(right_col[results[k]["right_survivors"]].tolist())
        registry.absorb_sharded(MetricsRegistry.from_dict(results[k]["metrics"]), k)
    for phase in (build, probe):
        cluster._record_worker_shares(registry, phase.name, phase.streamed)
    with registry.trace("master-complete"):
        output = join_output(left_keys, right_keys)
    for phase in (build, probe):
        _record_phase(registry, phase)
    return RunResult(
        query=query.describe(),
        output=output,
        phases=[build, probe],
        used_cheetah=True,
        workers=cluster.workers,
        op_kind="join",
        metrics=registry,
    )


# -- HAVING ------------------------------------------------------------------


def _run_having(cluster, query: Query, tables) -> "RunResult":
    from ..engine.cluster import PhaseVolume, RunResult, _record_phase

    op = query.operator
    table = tables[op.table]
    if query.where is not None:
        # A WHERE-masked table is a fresh object, so it never matches the
        # resident store (owns() is identity) — the per-run path below.
        table = table.mask(query.where.mask(table))
    keys_col = table.column(op.key)
    values_col = table.column(op.value)
    shards = cluster.config.parallelism
    registry = MetricsRegistry()
    resident = _acquire_resident(cluster, {op.table: table})
    ephemeral: Optional[SharedColumnStore] = None
    try:
        if resident is not None:
            entries = resident.column_entries(op.table, [op.key, op.value])
            handle = {"key": entries[op.key], "value": entries[op.value]}
            plan_entries = resident.plan_entries(
                op.table,
                shard_mod.shard_key_signature(op),
                shards,
                lambda: shard_mod.cached_hash_plan(op, table, shards),
            )
            for k, entry in enumerate(plan_entries):
                handle[f"__idx_{k}"] = entry
        else:
            export: Dict[str, np.ndarray] = {"key": keys_col, "value": values_col}
            for k, index in enumerate(
                shard_mod.cached_hash_plan(op, table, shards)
            ):
                export[f"__idx_{k}"] = index
            ephemeral = SharedColumnStore(export)
            handle = ephemeral.handle()
        specs = [
            {
                "shard": k,
                "handle": handle,
                "resident": resident.token if resident is not None else None,
                "query": query,
                "config": _child_config(cluster, k),
                "index": f"__idx_{k}",
                "batch": _batch_size(cluster),
            }
            for k in range(shards)
        ]
        _attach_trace(specs)
        results = _gather(cluster, specs, worker.run_having_shard, registry)
    finally:
        if ephemeral is not None:
            ephemeral.close()
        if resident is not None:
            resident.release()
    sketch = PhaseVolume("having-sketch")
    candidates: set = set()
    for k in range(shards):
        sketch.streamed += results[k]["streamed"]
        sketch.forwarded += results[k]["forwarded"]
        candidates.update(keys_col[results[k]["survivors"]].tolist())
        registry.absorb_sharded(MetricsRegistry.from_dict(results[k]["metrics"]), k)
    second = PhaseVolume("having-refetch")
    with registry.trace("having-refetch"):
        if candidates:
            refetch = int(np.isin(keys_col, np.asarray(list(candidates))).sum())
        else:
            refetch = 0
        second.streamed = second.forwarded = refetch
    cluster._record_worker_shares(registry, sketch.name, sketch.streamed)
    cluster._record_worker_shares(registry, second.name, second.streamed)
    with registry.trace("master-complete"):
        data = list(zip(keys_col.tolist(), values_col.tolist()))
        output = set(master_having(candidates, data, op.threshold, op.aggregate))
    for phase in (sketch, second):
        _record_phase(registry, phase)
    return RunResult(
        query=query.describe(),
        output=output,
        phases=[sketch, second],
        used_cheetah=True,
        workers=cluster.workers,
        op_kind="having",
        metrics=registry,
    )


# -- SKYLINE -----------------------------------------------------------------


def _run_skyline(cluster, query: Query, tables) -> "RunResult":
    from ..engine.cluster import PhaseVolume, RunResult, _record_phase

    op = query.operator
    table = tables[op.table]
    if query.where is not None:
        # Fresh object after masking — never matches the resident store.
        table = table.mask(query.where.mask(table))
    columns = list(op.columns)

    def build_matrix() -> np.ndarray:
        return point_matrix(table, columns)

    shards = cluster.config.parallelism
    registry = MetricsRegistry()
    bounds = table.partition_bounds(shards)
    resident = _acquire_resident(cluster, {op.table: table})
    ephemeral: Optional[SharedColumnStore] = None
    phase = PhaseVolume("skyline-stream")
    received: List[tuple] = []
    try:
        if resident is not None:
            # The derived float matrix is itself resident: built and
            # exported once per (table, dimension columns).
            handle = {
                "points": resident.matrix_entry(op.table, columns, build_matrix)
            }
        else:
            ephemeral = SharedColumnStore({"points": build_matrix()})
            handle = ephemeral.handle()
        specs = [
            {
                "shard": k,
                "handle": handle,
                "resident": resident.token if resident is not None else None,
                "query": query,
                "config": _child_config(cluster, k),
                "layout": ("bounds", int(bounds[k]), int(bounds[k + 1])),
                "batch": _batch_size(cluster),
            }
            for k in range(shards)
        ]
        with registry.trace("skyline-stream"):
            _attach_trace(specs)
            results = _gather(cluster, specs, worker.run_skyline_shard, registry)
    finally:
        if ephemeral is not None:
            ephemeral.close()
        if resident is not None:
            resident.release()
    for k in range(shards):
        phase.streamed += results[k]["streamed"]
        phase.forwarded += results[k]["forwarded"]
        received.extend(tuple(point) for point in results[k]["received"].tolist())
        registry.absorb_sharded(MetricsRegistry.from_dict(results[k]["metrics"]), k)
    cluster._record_worker_shares(registry, phase.name, phase.streamed)
    with registry.trace("master-complete"):
        output = set(master_skyline(received))
    _record_phase(registry, phase)
    return RunResult(
        query=query.describe(),
        output=output,
        phases=[phase],
        used_cheetah=True,
        workers=cluster.workers,
        op_kind="skyline",
        metrics=registry,
    )
