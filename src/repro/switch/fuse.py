"""The single-pass step: one pass, one prune bit per query (§6).

Every batched single-pass program — a solo query, a packed slot, a pool
shard, a chaos segment, the baseline passthrough — streams its column
slices through one :class:`FusedProgram`.  Per batch it runs the packed
WHERE stage, then each query's own pruner ``process_batch`` on that
query's entry shape, then the union of the keep-masks: the packed
stream's forward bit.  :func:`plan_fused` resolves each query's entry
extractor once per run, so a batch does no column-name lookups.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanError
from ..obs.tracing import current_context

__all__ = ["FusedProgram", "plan_fused"]

Slices = Tuple[np.ndarray, ...]
#: Maps one batch's shared column slices to a pruner's entry batch.
Extractor = Callable[[Slices], object]


def _extractor(op, columns: List[str]) -> Extractor:
    from ..engine.plan import CountOp, DistinctOp, FilterOp, GroupByOp, TopNOp

    if isinstance(op, (CountOp, FilterOp)):
        return lambda slices: slices
    if isinstance(op, DistinctOp):
        indices = [columns.index(c) for c in op.columns]
        if len(indices) == 1:
            (index,) = indices
            return lambda slices: slices[index]
        return lambda slices: list(zip(*(slices[i] for i in indices)))
    if isinstance(op, TopNOp):
        index = columns.index(op.order_by)
        # np.asarray is a view for a float64 column.  Ascending order
        # ("bottom N") negates into the max-domain the pruners are built for.
        if op.descending:
            return lambda slices: np.asarray(slices[index], dtype=np.float64)
        return lambda slices: -np.asarray(slices[index], dtype=np.float64)
    if isinstance(op, GroupByOp):
        key, value = columns.index(op.key), columns.index(op.value)
        return lambda slices: (
            slices[key], np.asarray(slices[value], dtype=np.float64)
        )
    raise PlanError(f"no entry mapping for {type(op).__name__}")


def plan_fused(queries: Sequence, columns: Sequence[str]) -> Tuple[Extractor, ...]:
    """Each query's entry extractor over the shared column layout."""
    layout = list(columns)
    return tuple(_extractor(query.operator, layout) for query in queries)


class FusedProgram:
    """A single-pass program bound to this run's pruners.

    ``run_batch`` takes one batch's shared column slices and returns
    ``(masks, any_forward)``: one keep-mask per query and their union.
    ``where`` is the packed WHERE stage of a single-query program: it
    runs first, so WHERE-violating rows never pollute a stateful
    operator's caches, and a slice with no passing row never reaches it.

    ``trace_sample`` N > 0 records every Nth batch as a ``fused-batch``
    span on ``registry`` — but only while a request
    :class:`~repro.obs.TraceContext` is active, so sampled kernel timings
    land inside the request's trace tree and a disabled sampler (the
    default 0) adds exactly zero spans.
    """

    def __init__(
        self,
        plan: Sequence[Extractor],
        pruners: Sequence,
        where=None,
        registry=None,
        trace_sample: int = 0,
    ) -> None:
        if len(plan) != len(pruners):
            raise ValueError(f"plan has {len(plan)} queries, got {len(pruners)} pruners")
        self._lanes = list(zip(plan, pruners))
        self._where = where
        self._registry = registry
        self._trace_sample = int(trace_sample) if registry is not None else 0
        self._batch_seen = 0

    def run_batch(self, slices: Slices) -> Tuple[List[np.ndarray], np.ndarray]:
        """Evaluate every query's pruner on one batch of column slices."""
        if self._trace_sample:
            index = self._batch_seen
            self._batch_seen += 1
            if index % self._trace_sample == 0 and current_context() is not None:
                rows = len(slices[0]) if slices else 0
                with self._registry.trace("fused-batch", batch=index, rows=rows):
                    return self._run_batch(slices)
        return self._run_batch(slices)

    def _run_batch(self, slices: Slices) -> Tuple[List[np.ndarray], np.ndarray]:
        passed: Optional[np.ndarray] = None
        if self._where is not None:
            passed = self._where.process_batch(slices)
            if not passed.any():
                return [passed], passed
            slices = tuple(column[passed] for column in slices)
        masks = [pruner.process_batch(extract(slices)) for extract, pruner in self._lanes]
        if passed is not None:
            forward = np.zeros(len(passed), dtype=bool)
            forward[passed] = masks[0]
            masks = [forward]
        any_forward = masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)
        return masks, any_forward
