"""The parent side of the process-parallel dataplane: transport only.

:func:`run_parallel` is the run driver (:meth:`Cluster._execute
<repro.engine.cluster.Cluster>`) with the shard pool as its executor, so
a parallel run reports through the same phases, spans and counter
families as an in-process one.  What lives here is what crossing the
process boundary needs (:func:`_pool_shards`):

1. **partition** — export the plan's stream inputs to shared memory
   once per run (:class:`~repro.parallel.shm.SharedColumnStore`), and
   cut shards (:mod:`repro.parallel.shard`): contiguous worker-partition
   bounds or multiswitch hash-partition index arrays, one cut per input
   side.
2. **stream** — one :func:`~repro.parallel.worker.run_shard` task per
   shard through :func:`_gather` (crash and timeout guardrails); each
   runs the operator plan's shard kernel and returns its partial plus a
   metrics snapshot.
3. fold every shard's snapshot into the run registry (counters summed,
   gauges labeled per shard) and hand the partials, in shard order, back
   to the driver, which completes the query.

Worker crashes (``BrokenProcessPool``) degrade to
:class:`~repro.errors.SharedMemoryUnavailable`, which the driver counts
and reruns in-process; ordinary exceptions from shard code propagate
unchanged.
"""

from __future__ import annotations

import atexit
import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from ..engine.dataplane import DEFAULT_BATCH
from ..engine.plan import Query
from ..errors import ShardTimeout, SharedMemoryUnavailable
from ..obs import MetricsRegistry
from ..obs.tracing import current_context
from . import shard as shard_mod
from . import worker
from .shm import SharedColumnStore

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
    )


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
) -> Dict[int, dict]:
    """Run shard tasks with crash and timeout guardrails.

    Results are *gathered* in completion order but always *merged* in
    shard order by the caller.  Two recovery paths wrap the plain scatter:

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

    def respawn_or_raise(exc: BrokenProcessPool) -> List[tuple]:
        # One recovery point for both ways a dead pool shows up: a
        # harvested future raising, or pool.submit raising synchronously
        # (the pool marks itself broken the moment any worker dies, so a
        # fast crash surfaces on the NEXT submit of the scatter loop).
        nonlocal pool, respawned
        _shutdown_pools()
        if respawned:
            raise SharedMemoryUnavailable(
                f"shard pool died twice: {exc}", reason="pool-died"
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

    The run driver with :func:`_pool_shards` as its executor.  When the
    fan-out cannot run (no shared memory, crashed pool) the driver falls
    back to its in-process executor and counts
    ``parallel_fallback_total{reason}``; every other exception is a real
    error.
    """
    return cluster._execute([query], tables, transport=_pool_shards)[0][0]


def _pool_shards(cluster, plan, shard, sides) -> List[dict]:
    """The pool executor: the plan's per-shard partials, in shard order.

    The run's stream inputs are exported to a :class:`SharedColumnStore`
    closed in ``finally``.  Shard metrics are folded into
    ``shard.registry`` only once every shard has answered.
    """
    config, registry, query = cluster.config, shard.registry, shard.queries[0]
    shards = config.parallelism
    hashed = shard_mod.HASHED == shard_mod.resolve_policy(
        query.operator, config.topn_randomized
    )
    store: Optional[SharedColumnStore] = None
    try:
        with registry.trace("partition"):
            #: Arrays to export, by name.
            columns: Dict[str, object] = {}
            #: Per shard, one ``(array names, cut)`` per side.
            cuts: List[list] = [[] for _ in range(shards)]
            for s, side in enumerate(sides):
                exported = side.arrays()
                names = [f"{s}.{i}" for i in range(len(exported))]
                columns.update(zip(names, exported))
                if hashed:
                    # A key's rows meet on one shard — and JOIN's sides
                    # shard by the SAME hash, so a key's build and probe
                    # entries share one Bloom filter.
                    index = shard_mod.cached_hash_plan(side.key, side.table, shards)
                    cut = [("index", f"{s}.idx{k}") for k in range(shards)]
                    columns.update((name, index[k]) for k, (_, name) in enumerate(cut))
                else:
                    bounds = side.table.partition_bounds(shards)
                    cut = [
                        ("bounds", int(bounds[k]), int(bounds[k + 1]))
                        for k in range(shards)
                    ]
                for k in range(shards):
                    cuts[k].append((names, cut[k]))
            store = SharedColumnStore(columns)
        specs = [
            {
                "shard": k,
                "handle": store.handle(),
                "query": query,
                "config": _child_config(cluster, k),
                "columns": shard.columns,
                "sides": cuts[k],
                "batch": config.batch_size or DEFAULT_BATCH,
            }
            for k in range(shards)
        ]
        span = None if plan.self_traced else plan.phases[0][0]
        with registry.trace(span) if span else nullcontext():
            # Inside the phase span, so shard-recorded spans re-parent
            # under it when absorb_sharded folds them back.
            _attach_trace(specs)
            results = _gather(cluster, specs, worker.run_shard, registry)
    except BrokenProcessPool as exc:
        _shutdown_pools()
        raise SharedMemoryUnavailable(
            f"shard pool died: {exc}", reason="pool-died"
        ) from exc
    finally:
        if store is not None:
            store.close()
    partials = [results[k] for k in range(shards)]
    for k, partial in enumerate(partials):
        registry.absorb_sharded(MetricsRegistry.from_dict(partial.pop("metrics")), k)
    return partials
