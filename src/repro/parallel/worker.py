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

from contextlib import contextmanager

from ..engine.cluster import _absorb_pruner
from ..engine.operators import Shard, plan_for
from ..obs import MetricsRegistry
from ..obs.tracing import TraceContext, clear_trace_context, trace_context
from .shm import attach_columns


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
    columns_map, close = attach_columns(spec["handle"])
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
        pruner = plan.pruner(query, cfg)
        where = plan.where_stage(query, spec["columns"], cfg)
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
