"""The shard task executed inside pool processes.

:func:`run_shard` is module-level (importable under the ``spawn`` start
method), receives one picklable *spec* dict, attaches the shared-memory
columns, runs the operator plan's shard kernel
(:mod:`repro.engine.operators`) over its shard's rows, and returns plain
arrays plus a :meth:`~repro.obs.MetricsRegistry.to_dict` snapshot —
never live objects.  Survivors come back as **global row-id int64
arrays**: the parent completes the query by gathering those rows from
its own column arrays, so no row payloads ever cross the process
boundary.

The pruner is rebuilt locally from the (picklable) query and config —
compiled formulas hold lambdas and cannot be pickled — with the shard's
derived seed, and the per-shard registry carries the same pruner labels
the in-process executor uses, so the parent's
:meth:`~repro.obs.MetricsRegistry.absorb_sharded` merge reproduces the
sequential counter families exactly.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Dict, Tuple

import numpy as np

from ..engine.cluster import _absorb_pruner
from ..engine.operators import Shard, plan_for
from ..obs import MetricsRegistry
from ..obs.tracing import TraceContext, clear_trace_context, trace_context
from .shm import attach_columns, open_segment


def _shard_trace(spec: dict, registry=None, span: str = ""):
    """Re-activate the parent's trace context inside this shard process.

    The runner stamps the active :class:`TraceContext` into the task
    spec (``spec["trace"]``); restoring it here makes every span the
    shard records — and the sampled ``fused-batch`` spans beneath — children
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
    query, cfg = spec["query"], spec["config"]
    _, plan = plan_for(query.operator)

    def build():
        if role == "where":
            return plan.where_stage(query, spec["columns"], cfg)
        return plan.pruner(query, cfg)

    return _template(spec, role, query.cache_key(), registry, build)


def run_shard(spec: dict) -> dict:
    """One shard of any operator plan: attach the columns, cut this
    shard's rows from every input side, and run the plan's shard kernel
    (:meth:`repro.engine.operators.OperatorPlan.stream`) over them with a
    locally built pruner.

    Returns the kernel's partial plus ``shard`` and a ``metrics``
    snapshot carrying the pruner labels the in-process executor uses.
    Rows of side *s* get global ids offset by the full length of the
    sides before it (JOIN's probe ids: the left table's rows, then the
    right table's).  Slices on the ``bounds`` layout are shared-memory
    views end to end: the kernel turns them straight into global row
    ids with no intermediate column copies.
    """
    columns_map, close = _attach(spec)
    try:
        query, cfg = spec["query"], spec["config"]
        kind, plan = plan_for(query.operator)
        arrays, row_ids, base = [], [], 0
        for names, cut in spec["sides"]:
            if cut[0] == "index":
                index = columns_map[cut[1]]
                arrays.extend(columns_map[name][index] for name in names)
                row_ids.append(index + base if base else index)
            else:
                arrays.extend(columns_map[name][cut[1] : cut[2]] for name in names)
                row_ids.append(cut[1] + base)
            base += len(columns_map[names[0]])
        registry = MetricsRegistry()
        pruner = _pruner(spec, registry)
        where = _pruner(spec, registry, role="where")
        shard = Shard([query], spec["columns"], [pruner], cfg, registry, where)
        span = "" if plan.self_traced else "shard-stream"
        with _shard_trace(spec, registry, span):
            partial = plan.stream(shard, arrays, row_ids, spec["batch"])
        _absorb_pruner(registry, pruner, query=kind, role="primary")
        if where is not None:
            _absorb_pruner(registry, where, query=kind, role="where")
        return {"shard": spec["shard"], "metrics": registry.to_dict(), **partial}
    finally:
        close()
