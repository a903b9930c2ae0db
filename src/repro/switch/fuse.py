"""Fused compiled pipelines: one vectorized pass for a multi-pruner program.

A packed program (§6) evaluates several queries' pruners on the same
entry stream.  The per-pruner batch dataplane already vectorizes each
pruner, but a packed batch still pays one full Python dispatch — entry
materialization, mask allocation, survivor tuple gather — *per pruner
per batch*.  This module compiles the packed program once into a
:class:`FusedProgram` that makes a single pass over each batch:

* each distinct ``(column-set, hash-config)`` digest — the canonical
  uint64 pass, float64 views, cache-matrix row assignments — is computed
  once per batch and shared across every kernel that needs it;
* all per-query keep-masks accumulate in one loop with **no
  intermediate entry tuples** (kernels read the shared column slices
  directly);
* survivors are kept as row-id arrays so the caller does exactly one
  columnar gather per query at the end.

What fuses and what falls back
------------------------------
Fusable single-pass kernels: filter/COUNT (stateless truth table),
deterministic TOP N (threshold ladder), exact single-column DISTINCT
and MIN/MAX GROUP BY (their cache matrices are still replayed row-group
sequentially — that is the exact-state contract — but the expensive
canonical + row-hash digests are shared).  Everything else falls back
to the per-pruner path with a ``fused_fallback_total{reason}`` counter:

* ``randomized-topn`` — per-entry RNG draws are sequentially coupled;
* ``fingerprint-distinct`` — the probabilistic fingerprint pipeline;
* ``multi-column-key`` — DISTINCT over tuple entries (object arrays);
* ``where-stage`` — a stateful operator behind a packed WHERE stage;
* ``unsupported-operator`` — anything without a single-pass kernel.

Plans are stateless and memoized module-level (like the compiler's
fit/pack caches); binding a plan to fresh pruners per run is O(queries).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.tracing import current_context

__all__ = [
    "FusedPlan",
    "FusedProgram",
    "KernelSpec",
    "clear_fused_cache",
    "fused_cache_stats",
    "ladder_pass",
    "plan_fused",
]

_FALLBACK_HELP = "Programs that fell back to the per-pruner path, by reason."
_BATCHES_HELP = "Batches executed by the fused single-pass kernel."
_SHARED_HELP = "Digest computations reused across fused kernels (hash-share hits)."


# ---------------------------------------------------------------------------
# Plans: stateless, memoized compilation of a packed program
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """One query's fused kernel: its kind and column indices.

    ``value_index`` is the operator's value column (TOP N order-by,
    DISTINCT key, GROUP BY value); ``key_index`` is the GROUP BY key.
    Filter kernels read the whole shared slice tuple and need neither.
    """

    kind: str  # "filter" | "topn-det" | "distinct" | "groupby"
    value_index: int = -1
    key_index: int = -1
    descending: bool = True


@dataclass(frozen=True)
class FusedPlan:
    """The compiled (stateless) shape of a fused program.

    ``fallback_reason`` is None when every query fused; otherwise it
    names the first unfusable query's reason and ``specs`` is empty —
    fusion is all-or-nothing so the fused and per-pruner paths never
    interleave on one stream.
    """

    columns: Tuple[str, ...]
    specs: Tuple[KernelSpec, ...]
    fallback_reason: Optional[str] = None

    @property
    def fused(self) -> bool:
        """True when the program compiled to fused kernels."""
        return self.fallback_reason is None


_PLAN_CACHE: Dict[tuple, FusedPlan] = {}
_PLAN_STATS = {"hits": 0, "misses": 0}


def fused_cache_stats() -> Dict[str, int]:
    """A ``{"hits": n, "misses": m}`` snapshot of the fused-plan memo."""
    return dict(_PLAN_STATS)


def clear_fused_cache() -> None:
    """Drop all memoized fused plans (tests, config sweeps)."""
    _PLAN_CACHE.clear()
    _PLAN_STATS["hits"] = 0
    _PLAN_STATS["misses"] = 0


def _classify(query, columns: Tuple[str, ...], config) -> object:
    """One query's :class:`KernelSpec`, or a fallback-reason string."""
    from ..engine.plan import CountOp, DistinctOp, FilterOp, GroupByOp, TopNOp

    op = query.operator
    if isinstance(op, (CountOp, FilterOp)):
        # WHERE folds into the filter formula, so it never blocks fusion.
        return KernelSpec(kind="filter")
    if query.where is not None:
        # A stateful operator behind a packed WHERE stage: the primary
        # pruner must only see WHERE-passing rows, which needs the
        # two-stage per-pruner path.
        return "where-stage"
    if isinstance(op, DistinctOp):
        if config.distinct_fingerprint:
            return "fingerprint-distinct"
        if len(op.columns) != 1:
            return "multi-column-key"
        return KernelSpec(kind="distinct", value_index=columns.index(op.columns[0]))
    if isinstance(op, TopNOp):
        if config.topn_randomized:
            return "randomized-topn"
        return KernelSpec(
            kind="topn-det",
            value_index=columns.index(op.order_by),
            descending=op.descending,
        )
    if isinstance(op, GroupByOp):
        return KernelSpec(
            kind="groupby",
            key_index=columns.index(op.key),
            value_index=columns.index(op.value),
        )
    return "unsupported-operator"


def plan_fused(queries: Sequence, columns: Sequence[str], config) -> FusedPlan:
    """Compile (and memoize) the fused plan for a packed program.

    The plan depends only on each query's canonical cache key, the
    shared column layout, and the config knobs that choose pruner
    *types* (``topn_randomized``, ``distinct_fingerprint``) — pruner
    sizing lives in the bound pruners, not the plan.  Never raises: an
    unfusable program returns a plan carrying its ``fallback_reason``.
    """
    layout = tuple(columns)
    key = (
        tuple(query.cache_key() for query in queries),
        layout,
        bool(config.topn_randomized),
        bool(config.distinct_fingerprint),
    )
    cached = _PLAN_CACHE.get(key)
    if cached is not None:
        _PLAN_STATS["hits"] += 1
        return cached
    _PLAN_STATS["misses"] += 1
    specs: List[KernelSpec] = []
    plan = None
    for query in queries:
        spec = _classify(query, layout, config)
        if isinstance(spec, str):
            plan = FusedPlan(columns=layout, specs=(), fallback_reason=spec)
            break
        specs.append(spec)
    if plan is None:
        plan = FusedPlan(columns=layout, specs=tuple(specs))
    _PLAN_CACHE[key] = plan
    return plan


# ---------------------------------------------------------------------------
# Batch context: per-batch digest sharing
# ---------------------------------------------------------------------------


class _BatchContext:
    """Digest memo for one batch: each key is computed at most once.

    Keys name a ``(column, transform, hash-config)`` triple, so two
    kernels requesting the same digest — the canonical uint64 pass of a
    shared key column, a float64 view, a cache-matrix row assignment
    under the same ``(rows, seed)`` — share one computation.  Hits are
    counted for the ``fused_digest_shared_total`` counter.
    """

    __slots__ = ("slices", "shared_hits", "_memo")

    def __init__(self, slices: Tuple[np.ndarray, ...]) -> None:
        self.slices = slices
        self.shared_hits = 0
        self._memo: Dict[tuple, np.ndarray] = {}

    def memo(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        cached = self._memo.get(key)
        if cached is not None:
            self.shared_hits += 1
            return cached
        value = build()
        self._memo[key] = value
        return value

    def canonical(self, index: int) -> np.ndarray:
        from ..sketches.hashing import canonical_batch

        return self.memo(("canon", index), lambda: canonical_batch(self.slices[index]))

    def f64(self, index: int) -> np.ndarray:
        # np.asarray is a view for float64 columns — no copy on the
        # common path, which is what keeps shared-memory columns
        # zero-copy through the fused TOP N / GROUP BY kernels.
        return self.memo(
            ("f64", index), lambda: np.asarray(self.slices[index], dtype=np.float64)
        )

    def neg_f64(self, index: int) -> np.ndarray:
        return self.memo(("negf64", index), lambda: -self.f64(index))

    def matrix_rows(self, index: int, matrix) -> np.ndarray:
        """Shared row assignment for a cache/keyed-aggregate matrix.

        Two pruners hashing the same column into matrices with the same
        ``(type, rows, seed)`` share the whole row-hash; different
        configs still share the canonical pass underneath.
        """
        canon = self.canonical(index)
        key = ("rows", index, type(matrix).__name__, matrix.rows, matrix.seed)
        return self.memo(
            key, lambda: matrix.row_of_batch(self.slices[index], canonical=canon)
        )


# ---------------------------------------------------------------------------
# Bound programs: plan + live pruners
# ---------------------------------------------------------------------------


class FusedProgram:
    """A fused plan bound to this run's pruners and metrics registry.

    ``run_batch`` takes the shared column slices of one batch and
    returns ``(masks, any_forward)``: one boolean keep-mask per query
    (pruner state and :class:`~repro.core.base.PruneStats` updated
    exactly as the per-pruner path would) plus their union, which is
    the packed stream's forward bit.  ``trace``, when set to a list,
    records each batch's slice tuple — the buffer-identity hook the
    zero-copy tests use.

    ``trace_sample`` N > 0 records every Nth batch as a ``fused-batch``
    span on the registry — but only while a request
    :class:`~repro.obs.TraceContext` is active, so sampled kernel
    timings land inside the request's trace tree and a disabled sampler
    (the default 0) adds exactly zero spans.
    """

    def __init__(
        self, plan: FusedPlan, pruners: Sequence, registry=None, trace_sample: int = 0
    ) -> None:
        if not plan.fused:
            raise ValueError(
                f"cannot bind a fallback plan (reason={plan.fallback_reason!r})"
            )
        if len(plan.specs) != len(pruners):
            raise ValueError(
                f"plan has {len(plan.specs)} kernels, got {len(pruners)} pruners"
            )
        self.plan = plan
        self.trace: Optional[list] = None
        self._kernels = [
            _bind_kernel(spec, pruner) for spec, pruner in zip(plan.specs, pruners)
        ]
        self._batches = None
        self._shared = None
        self._registry = registry
        self._trace_sample = int(trace_sample) if registry is not None else 0
        self._batch_seen = 0
        if registry is not None:
            self._batches = registry.counter("fused_batches_total", _BATCHES_HELP)
            self._shared = registry.counter("fused_digest_shared_total", _SHARED_HELP)

    def run_batch(
        self, slices: Tuple[np.ndarray, ...]
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Evaluate every kernel on one batch of shared column slices.

        Returns ``(masks, any_forward)``: the per-query keep-masks and
        their union (the packed stream's forward bit).  Digests are
        memoized per batch, so kernels sharing a column hash it once.
        """
        if self._trace_sample:
            index = self._batch_seen
            self._batch_seen += 1
            if index % self._trace_sample == 0 and current_context() is not None:
                rows = len(slices[0]) if slices else 0
                with self._registry.trace("fused-batch", batch=index, rows=rows):
                    return self._run_batch(slices)
        return self._run_batch(slices)

    def _run_batch(
        self, slices: Tuple[np.ndarray, ...]
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        if self.trace is not None:
            self.trace.append(slices)
        ctx = _BatchContext(slices)
        masks = [kernel(ctx) for kernel in self._kernels]
        any_forward = masks[0]
        if len(masks) > 1:
            any_forward = masks[0].copy()
            for mask in masks[1:]:
                np.logical_or(any_forward, mask, out=any_forward)
        if self._batches is not None:
            self._batches.inc()
            if ctx.shared_hits:
                self._shared.inc(ctx.shared_hits)
        return masks, any_forward


def _bind_kernel(spec: KernelSpec, pruner) -> Callable[[_BatchContext], np.ndarray]:
    """Close a :class:`KernelSpec` over its live pruner.

    Every kernel funnels through the pruner's own ``process_batch`` so
    decisions, matrix state and stats counters are exactly the
    per-pruner path's; fusion only changes *where the inputs come from*
    (shared slices and shared digests instead of per-pruner entry
    materialization).
    """
    if spec.kind == "filter":
        return lambda ctx: pruner.process_batch(ctx.slices)
    if spec.kind == "topn-det":
        index, descending = spec.value_index, spec.descending

        def topn_kernel(ctx: _BatchContext) -> np.ndarray:
            values = ctx.f64(index) if descending else ctx.neg_f64(index)
            return pruner.process_batch(values)

        return topn_kernel
    if spec.kind == "distinct":
        index = spec.value_index
        matrix = pruner._matrix

        def distinct_kernel(ctx: _BatchContext) -> np.ndarray:
            rows = ctx.matrix_rows(index, matrix)
            return pruner.process_batch(ctx.slices[index], rows=rows)

        return distinct_kernel
    if spec.kind == "groupby":
        key_index, value_index = spec.key_index, spec.value_index
        matrix = pruner._matrix

        def groupby_kernel(ctx: _BatchContext) -> np.ndarray:
            rows = ctx.matrix_rows(key_index, matrix)
            entries = (ctx.slices[key_index], ctx.f64(value_index))
            return pruner.process_batch(entries, rows=rows)

        return groupby_kernel
    raise ValueError(f"unknown kernel kind {spec.kind!r}")


def record_fallback(registry, reason: str) -> None:
    """Count one program-level fallback to the per-pruner path."""
    registry.counter("fused_fallback_total", _FALLBACK_HELP, reason=reason).inc()


def ladder_pass(
    rest: np.ndarray, thresholds: np.ndarray, counters: np.ndarray, n: int
) -> np.ndarray:
    """One TOP N threshold-ladder pass over post-warmup values.

    Entry ``k``'s counter for threshold ``t_i`` is the carried-in value
    plus the inclusive cumsum of ``rest >= t_i`` — exactly what the
    scalar loop reads right after its own update.  ``counters`` is
    updated in place; the return value is each entry's active cutoff
    (``-inf`` when no threshold has reached ``n`` entries yet).
    """
    cutoffs = np.full(len(rest), -np.inf)
    for i in range(len(thresholds)):
        counts = counters[i] + np.cumsum(rest >= thresholds[i])
        cutoffs = np.where(counts >= n, thresholds[i], cutoffs)
        counters[i] = counts[-1]
    return cutoffs
