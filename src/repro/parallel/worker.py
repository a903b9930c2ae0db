"""Shard task functions executed inside pool processes.

Each function is module-level (importable under the ``spawn`` start
method), receives one picklable *spec* dict, attaches the shared-memory
columns, runs the shared batch kernels of :mod:`repro.engine.dataplane`
over its shard's rows, and returns plain arrays plus a
:meth:`~repro.obs.MetricsRegistry.to_dict` snapshot — never live
objects.  Survivors come back as **global row-id int64 arrays**: the
parent completes the query by gathering those rows from its own column
arrays, so no row payloads ever cross the process boundary.

The pruner is rebuilt locally from the (picklable) query and config —
compiled formulas hold lambdas and cannot be pickled — with the shard's
derived seed, and the per-shard registry carries the same pruner labels
the sequential path uses, so the parent's
:meth:`~repro.obs.MetricsRegistry.absorb_sharded` merge reproduces the
sequential counter families exactly.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Tuple

import numpy as np

from ..engine.dataplane import (
    compile_program,
    having_sketch,
    join_probe,
    pruner_step,
    skyline_stream,
    stream_batches,
)
from ..obs import MetricsRegistry
from ..obs.tracing import TraceContext, clear_trace_context, trace_context
from .shm import attach_columns, open_segment


def _shard_trace(spec: dict, registry=None, span: str = ""):
    """Re-activate the parent's trace context inside this shard process.

    The runner stamps the active :class:`TraceContext` into the task
    spec (``spec["trace"]``); restoring it here makes every span the
    shard records — and the sampled fused-batch spans beneath — children
    of the parent's stream phase once ``absorb_sharded`` folds the
    snapshot back.  When ``registry`` and ``span`` are given, a span of
    that name additionally wraps the block, but *only* while tracing is
    active — shards record no extra spans when tracing is off, keeping
    the traced-off metrics shape identical to the sequential path.
    Absent payload means tracing is off for this task: the context is
    explicitly *cleared*, because fork-started pool processes may have
    inherited an active context from whichever request first created
    the pool.
    """
    payload = spec.get("trace")
    if payload is None:
        return clear_trace_context()
    context = trace_context(TraceContext.from_dict(payload))
    if registry is None or not span:
        return context

    @contextmanager
    def _activate_and_time():
        with context, registry.trace(span):
            yield

    return _activate_and_time()


# -- resident warm-worker caches ----------------------------------------------
#
# Pool processes persist across runs, so a task spec carrying a resident
# store token (``spec["resident"]``) opts into two per-process caches:
#
# * **segment attachments** — each resident segment is mapped once per
#   token and stays mapped across tasks; per-task specs (no token) keep
#   the attach-and-close-per-task discipline.  Only one token's segments
#   stay attached at a time: a task carrying a *different* token evicts
#   the old epoch's mappings, so a retired store's pages are released as
#   soon as the new epoch's first task lands (and at the latest when the
#   pool dies).
# * **pruner templates** — pruners keyed by (token, kind, plan signature,
#   config signature); a hit calls :meth:`~repro.core.base.Pruner.reset`
#   (zeroed metrics + stats + dataplane state, identical hash seeds)
#   instead of rebuilding.  ``resident_pruner_{builds,reuses}_total``
#   counters ride back in each task's metrics snapshot.

_RESIDENT_SEGMENTS: Dict[str, Dict[str, object]] = {}
_PRUNER_TEMPLATES: "OrderedDict[tuple, object]" = OrderedDict()
_PRUNER_TEMPLATES_MAX = 64


def _noop_close() -> None:
    return None


def _attach(spec: dict) -> Tuple[Dict[str, np.ndarray], Callable[[], None]]:
    """``(columns, close)`` for a task spec, resident-aware.

    Resident handles resolve against the persistent per-token segment
    cache (``close`` is a no-op — the mappings outlive the task); plain
    handles fall through to :func:`attach_columns`.
    """
    token = spec.get("resident")
    if token is None:
        return attach_columns(spec["handle"])
    for stale in [t for t in _RESIDENT_SEGMENTS if t != token]:
        for segment in _RESIDENT_SEGMENTS.pop(stale).values():
            try:
                segment.close()
            except Exception:  # pragma: no cover
                pass
        _evict_templates(stale)
    cache = _RESIDENT_SEGMENTS.setdefault(token, {})
    columns: Dict[str, np.ndarray] = {}
    for name, entry in spec["handle"].items():
        if entry[0] == "inline":
            columns[name] = entry[1]
            continue
        _, segment_name, shape, dtype = entry
        segment = cache.get(segment_name)
        if segment is None:
            segment = open_segment(segment_name)
            cache[segment_name] = segment
        columns[name] = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf)
    return columns, _noop_close


def _evict_templates(token: str) -> None:
    for key in [k for k in _PRUNER_TEMPLATES if k[0] == token]:
        del _PRUNER_TEMPLATES[key]


def _config_signature(cfg) -> tuple:
    """A hashable digest of every pruner-relevant config field."""
    return tuple(
        (field.name, repr(getattr(cfg, field.name)))
        for field in dataclasses.fields(cfg)
        if field.name != "fault_plan"
    )


def _template(
    spec: dict,
    kind: str,
    plan_key: object,
    registry: MetricsRegistry,
    build: Callable[[], object],
):
    """A pruner for this task: reset-and-reuse under a resident token.

    Non-resident tasks build fresh (the prior behavior).  The reuse
    leans on the final :meth:`Pruner.reset` contract — a reset pruner is
    indistinguishable from a freshly built one with the same seed.
    """
    token = spec.get("resident")
    if token is None:
        return build()
    key = (token, kind, plan_key, _config_signature(spec["config"]))
    pruner = _PRUNER_TEMPLATES.get(key)
    if pruner is None:
        pruner = build()
        if pruner is None:  # nothing to cache (e.g. no WHERE stage)
            return None
        _PRUNER_TEMPLATES[key] = pruner
        registry.counter(
            "resident_pruner_builds_total",
            "Pruner templates built into the resident worker cache.",
        ).inc()
    else:
        pruner.reset()
        registry.counter(
            "resident_pruner_reuses_total",
            "Pruner templates reused (reset) from the resident worker cache.",
        ).inc()
    _PRUNER_TEMPLATES.move_to_end(key)
    while len(_PRUNER_TEMPLATES) > _PRUNER_TEMPLATES_MAX:
        _PRUNER_TEMPLATES.popitem(last=False)
    return pruner


def _pruner(spec: dict, registry: MetricsRegistry, role: str = "primary"):
    """This task's pruner — or, for ``role="where"``, its packed WHERE
    stage — rebuilt locally from the picklable query and the shard's
    config (resident tasks reset-and-reuse a cached template)."""
    from ..engine.cluster import Cluster

    cluster = Cluster(workers=1, config=spec["config"])
    query = spec["query"]

    def build():
        if role == "where":
            return cluster._build_where_stage(query, spec["columns"])
        return cluster._build_pruner(query, {})

    return _template(spec, role, query.cache_key(), registry, build)


def _reply(spec: dict, registry: MetricsRegistry, pruner, where_pruner=None, **payload) -> dict:
    """The task's result: plain arrays plus a metrics snapshot carrying
    the pruner labels the sequential path uses."""
    from ..engine.cluster import _absorb_pruner, _op_kind

    kind = _op_kind(spec["query"].operator)
    _absorb_pruner(registry, pruner, query=kind, role="primary")
    if where_pruner is not None:
        _absorb_pruner(registry, where_pruner, query=kind, role="where")
    return {"shard": spec["shard"], "metrics": registry.to_dict(), **payload}


def run_single_pass_shard(spec: dict) -> dict:
    """One shard of a single-pass operator (filter/COUNT, DISTINCT,
    TOP N, GROUP BY): stream the shard's rows through a locally built
    pruner and return surviving global row ids.
    """
    columns_map, close = _attach(spec)
    try:
        query = spec["query"]
        columns = spec["columns"]
        if spec["layout"][0] == "index":
            row_ids = columns_map[spec["layout"][1]]
            arrays = [columns_map[name][row_ids] for name in columns]
        else:
            row_ids, hi = spec["layout"][1], spec["layout"][2]
            arrays = [columns_map[name][row_ids:hi] for name in columns]
        cfg = spec["config"]
        registry = MetricsRegistry()
        pruner = _pruner(spec, registry)
        where_pruner = _pruner(spec, registry, role="where")
        # Fused kernel under the same engagement rule as the sequential
        # path (explicit batch_size), so the parent's absorb_sharded merge
        # reproduces the sequential counter families exactly.  Shard
        # slices on the "bounds" layout are shared-memory views end to
        # end: the kernel turns them straight into global row ids with no
        # intermediate column copies.
        program = None
        if cfg.fused and cfg.batch_size is not None:
            program = compile_program([query], columns, cfg, [pruner], registry)
        step = (
            program.run_batch if program is not None
            else pruner_step([query], columns, [pruner], where_pruner)
        )
        with _shard_trace(spec, registry, "shard-stream"):
            streamed, forwarded, ids = stream_batches(
                step, arrays, row_ids, spec["batch"]
            )
        return _reply(
            spec, registry, pruner, where_pruner,
            streamed=streamed, forwarded=forwarded, survivors=ids[0],
        )
    finally:
        close()


def run_join_shard(spec: dict) -> dict:
    """One JOIN shard: build Bloom filters from this shard's slice of
    both key columns, then probe the same slice — the shard's build
    feeds its probe directly, with no cross-shard barrier.
    """
    columns_map, close = _attach(spec)
    try:
        op = spec["query"].operator
        left_index = columns_map[spec["left_index"]]
        right_index = columns_map[spec["right_index"]]
        left_keys = columns_map["left"][left_index]
        right_keys = columns_map["right"][right_index]
        registry = MetricsRegistry()
        pruner = _pruner(spec, registry)
        with _shard_trace(spec), registry.trace("join-build"):
            pruner.build(left_keys, right_keys)
        with _shard_trace(spec), registry.trace("join-probe"):
            _, left_kept, left_ids = join_probe(
                pruner, op.table, left_keys, left_index, spec["batch"]
            )
            _, right_kept, right_ids = join_probe(
                pruner, op.right_table, right_keys, right_index, spec["batch"]
            )
        return _reply(
            spec, registry, pruner,
            streamed=len(left_keys) + len(right_keys),
            forwarded=left_kept + right_kept,
            left_survivors=left_ids,
            right_survivors=right_ids,
        )
    finally:
        close()


def run_having_shard(spec: dict) -> dict:
    """One HAVING shard: sketch pass over this shard's ``(key, value)``
    rows; survivors are the rows whose key crossed the threshold here.
    Hash sharding guarantees every entry of a key hit this one sketch.
    """
    columns_map, close = _attach(spec)
    try:
        index = columns_map[spec["index"]]
        registry = MetricsRegistry()
        pruner = _pruner(spec, registry)
        with _shard_trace(spec), registry.trace("having-sketch"):
            streamed, forwarded, ids = having_sketch(
                pruner,
                columns_map["key"][index],
                columns_map["value"][index],
                index,
                spec["batch"],
            )
        return _reply(
            spec, registry, pruner,
            streamed=streamed, forwarded=forwarded, survivors=ids,
        )
    finally:
        close()


def run_skyline_shard(spec: dict) -> dict:
    """One SKYLINE shard: an independent pruner replica over a
    contiguous point slice; returns the points the master must see
    (forwarded carried points plus the FIN drain) as a float matrix.
    """
    columns_map, close = _attach(spec)
    try:
        lo, hi = spec["layout"][1], spec["layout"][2]
        matrix = columns_map["points"][lo:hi]
        registry = MetricsRegistry()
        pruner = _pruner(spec, registry)
        with _shard_trace(spec, registry, "shard-stream"):
            streamed, forwarded, received = skyline_stream(
                pruner, matrix, spec["batch"]
            )
            drained = pruner.drain()
            received.extend(drained)
        points = (
            np.asarray(received, dtype=np.float64)
            if received
            else np.empty((0, matrix.shape[1]))
        )
        return _reply(
            spec, registry, pruner,
            streamed=streamed, forwarded=forwarded + len(drained), received=points,
        )
    finally:
        close()
