"""The batch dataplane every execution path shares.

Survivors are **global row ids** (``np.int64`` arrays) from any pruner
loop to any completion.  One streaming loop, :func:`stream_batches`,
hands a pruner *step* column slices and turns its keep-masks into row
ids; the sequential cluster calls it once per worker partition, a shard
process once per shard, and the chaos path once per fault-free segment.
The steps are the operators' kernels: the fused program when it compiles
(:func:`compile_program`), per-pruner ``process_batch`` behind the packed
WHERE stage otherwise (:func:`pruner_step`), the JOIN probe and the
HAVING sketch (:func:`join_probe`, :func:`having_sketch`).  SKYLINE is
the one operator whose switch forwards something other than the arriving
entry — the *carried* point — so :func:`skyline_stream` returns a point
array.

Completion is likewise one function per direction:
:func:`single_pass_partial` gathers only the streamed columns for a set
of row ids and reduces them to a partial, :func:`merge_single_pass`
merges partials.  A sequential, fused or packed run is the one-partial
case of what the sharded runner does with one partial per shard.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.base import Pruner
from ..core.filtering import FilterPruner
from ..core.groupby import master_groupby
from ..core.topn import master_topn
from ..errors import PlanError
from ..switch.fuse import FusedProgram, plan_fused, record_fallback
from .plan import CountOp, DistinctOp, FilterOp, GroupByOp, Query, TopNOp
from .table import Table

#: The one implicit batch size: what a ``batch_size=None`` run streams in
#: wherever it has no per-entry loop (JOIN, HAVING, SKYLINE, pool shards,
#: fused packed slots, chaos segments).  Results are batch-invariant.
DEFAULT_BATCH = 65536

#: ``step(slices) -> (masks, any_forward)``: one keep-mask per query over
#: the slice rows plus their union (the §6 forward bit) —
#: :meth:`FusedProgram.run_batch`'s contract.
Step = Callable[[Tuple[np.ndarray, ...]], Tuple[Sequence[np.ndarray], np.ndarray]]

#: Where a stream's rows sit in the table: a base offset for a contiguous
#: run, or an explicit row-id array (hash shards, perturbed chaos streams).
RowIds = Union[int, np.ndarray]


def concat_ids(chunks: List[np.ndarray]) -> np.ndarray:
    """Row-id chunks as one ``int64`` array (empty list → empty array)."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(chunks).astype(np.int64, copy=False)


# -- streaming -----------------------------------------------------------------


def stream_batches(
    step: Step,
    arrays: Sequence[np.ndarray],
    row_ids: RowIds,
    batch_size: int,
    outputs: int = 1,
) -> Tuple[int, int, List[np.ndarray]]:
    """Stream ``arrays`` through ``step`` in column slices.

    Returns ``(streamed, forwarded, ids)``: ``forwarded`` counts rows any
    query kept and ``ids[i]`` are the global row ids query ``i`` kept, in
    stream order.  Slices are views — nothing is copied before the
    survivors' row ids are computed.
    """
    total = len(arrays[0])
    forwarded = 0
    chunks: List[List[np.ndarray]] = [[] for _ in range(outputs)]
    for lo in range(0, total, batch_size):
        masks, any_forward = step(tuple(a[lo : lo + batch_size] for a in arrays))
        forwarded += int(np.count_nonzero(any_forward))
        for kept, mask in zip(chunks, masks):
            local = np.flatnonzero(mask)
            if len(local):
                local += lo
                kept.append(
                    row_ids[local] if isinstance(row_ids, np.ndarray)
                    else local + row_ids
                )
    return total, forwarded, [concat_ids(kept) for kept in chunks]


def entries_batch(op, columns: Sequence[str], slices: Tuple):
    """Map streamed column slices to the pruner's batch entry shape."""
    if isinstance(op, (CountOp, FilterOp)):
        return slices
    if isinstance(op, DistinctOp):
        if len(op.columns) == 1:
            return slices[columns.index(op.columns[0])]
        parts = [slices[columns.index(c)] for c in op.columns]
        return list(zip(*parts))
    if isinstance(op, TopNOp):
        values = slices[columns.index(op.order_by)].astype(np.float64)
        # Ascending order ("bottom N") negates into the max-domain the
        # pruners are built for.
        return values if op.descending else -values
    if isinstance(op, GroupByOp):
        return (
            slices[columns.index(op.key)],
            slices[columns.index(op.value)].astype(np.float64),
        )
    raise PlanError(f"no entry mapping for {type(op).__name__}")


def pruner_step(
    queries: Sequence[Query],
    columns: Sequence[str],
    pruners: Sequence[Pruner],
    where_pruner: Optional[FilterPruner] = None,
) -> Step:
    """The per-pruner kernel: each pruner's ``process_batch`` per slice.

    The packed WHERE stage (§6; single-query programs only) runs first,
    so WHERE-violating rows never pollute a stateful operator's caches:
    the primary pruner sees only the passing rows, and a slice with none
    never reaches it.
    """
    ops = [query.operator for query in queries]

    def step(slices):
        passed = None
        if where_pruner is not None:
            passed = where_pruner.process_batch(slices)
            if not passed.any():
                return (passed,), passed
            slices = tuple(column[passed] for column in slices)
        masks = [
            pruner.process_batch(entries_batch(op, columns, slices))
            for op, pruner in zip(ops, pruners)
        ]
        if passed is not None:
            forward = np.zeros(len(passed), dtype=bool)
            forward[passed] = masks[0]
            masks = [forward]
        any_forward = masks[0] if len(masks) == 1 else np.logical_or.reduce(masks)
        return masks, any_forward

    return step


def compile_program(
    queries: Sequence[Query],
    columns: Sequence[str],
    config,
    pruners: Sequence[Pruner],
    registry,
    plan_config=None,
) -> Optional[FusedProgram]:
    """Bind the fused plan to ``pruners``, or count why it did not compile."""
    plan = plan_fused(queries, columns, plan_config or config)
    if not plan.fused:
        record_fallback(registry, plan.fallback_reason)
        return None
    return FusedProgram(
        plan, pruners, registry=registry, trace_sample=config.fused_trace_sample
    )


def _one_mask(process: Callable[[Tuple], np.ndarray]) -> Step:
    def step(slices):
        mask = process(slices)
        return (mask,), mask

    return step


def join_probe(pruner, side: str, keys: np.ndarray, row_ids: RowIds, batch_size: int):
    """JOIN pass 2 for one side's keys: ``(streamed, forwarded, ids)``."""
    streamed, forwarded, ids = stream_batches(
        _one_mask(lambda slices: pruner.process_batch((side, slices[0]))),
        (keys,), row_ids, batch_size,
    )
    return streamed, forwarded, ids[0]


def having_sketch(pruner, keys: np.ndarray, values: np.ndarray, row_ids: RowIds, batch_size: int):
    """HAVING's sketch pass over ``(key, value)`` rows: ``(streamed,
    forwarded, ids)`` — the rows whose key crossed the threshold here."""
    streamed, forwarded, ids = stream_batches(
        _one_mask(pruner.process_batch), (keys, values), row_ids, batch_size
    )
    return streamed, forwarded, ids[0]


def skyline_stream(pruner, matrix: np.ndarray, batch_size: int):
    """SKYLINE's stream over a point matrix: ``(streamed, forwarded,
    received)`` where ``received`` is the ``(m, D)`` array of the *carried*
    points the switch forwarded.  The caller drains the pruner at FIN."""
    chunks = [matrix[:0]]
    for lo in range(0, len(matrix), batch_size):
        forward = pruner.process_batch(matrix[lo : lo + batch_size])
        chunks.append(pruner.last_batch_carried[forward])
    received = np.concatenate(chunks)
    return len(matrix), len(received), received


def point_matrix(table: Table, columns: Sequence[str]) -> np.ndarray:
    """SKYLINE's dimension columns as one float64 point matrix."""
    if not table.num_rows:
        return np.empty((0, len(columns)))
    return np.column_stack([table.column(c).astype(np.float64) for c in columns])


# -- completion ------------------------------------------------------------------


def single_pass_partial(
    query: Query,
    columns: Sequence[str],
    table: Table,
    ids: np.ndarray,
    dedup: bool = False,
):
    """Reduce survivor row ids to the operator's completion-ready partial.

    Gathers **only the streamed columns** for ``ids`` and applies the
    master-side WHERE/predicate re-check.  ``dedup`` (the chaos path) drops
    repeated row ids first: a duplicated packet or a crashed worker's
    replay must not double-count a row; fault-free streams carry each row
    id at most once.
    """
    if dedup:
        ids = np.unique(ids)
    op = query.operator
    sub = Table(table.name, {name: table.column(name)[ids] for name in columns})
    if query.where is not None:
        keep = query.where.mask(sub)
        ids, sub = ids[keep], sub.mask(keep)
    if isinstance(op, (CountOp, FilterOp)):
        keep = op.predicate.mask(sub)
        return int(np.count_nonzero(keep)) if isinstance(op, CountOp) else ids[keep]
    if isinstance(op, DistinctOp):
        parts = [sub.column(c).tolist() for c in op.columns]
        return set(parts[0]) if len(parts) == 1 else set(zip(*parts))
    if isinstance(op, TopNOp):
        values = sub.column(op.order_by).astype(np.float64)
        return values if op.descending else -values
    if isinstance(op, GroupByOp):
        keys = sub.column(op.key).tolist()
        values = sub.column(op.value).astype(np.float64).tolist()
        return list(zip(keys, values))
    raise PlanError(f"no completion for {type(op).__name__}")


def merge_single_pass(query: Query, partials: Sequence) -> object:
    """Merge partials (in shard order) into the query's output."""
    op = query.operator
    if isinstance(op, CountOp):
        return sum(partials)
    if isinstance(op, FilterOp):
        return set(concat_ids(list(partials)).tolist())
    if isinstance(op, DistinctOp):
        return set().union(*partials)
    if isinstance(op, TopNOp):
        top = master_topn(np.concatenate(partials), op.n)
        return top if op.descending else [-v for v in top]
    if isinstance(op, GroupByOp):
        return master_groupby(
            [entry for part in partials for entry in part], op.aggregate
        )
    raise PlanError(f"no completion for {type(op).__name__}")


def join_output(left_keys: Sequence, right_keys: Sequence) -> Counter:
    """The master's JOIN completion: per-key match counts."""
    left_counts = Counter(left_keys)
    right_counts = Counter(right_keys)
    return Counter(
        {
            key: left_counts[key] * right_counts[key]
            for key in left_counts
            if key in right_counts
        }
    )
