"""The batch dataplane every execution path shares.

Survivors are **global row ids** (``np.int64`` arrays) from any pruner
loop to any completion.  One streaming loop, :func:`stream_batches`,
hands a pruner *step* column slices and turns its keep-masks into row
ids; the sequential cluster calls it once per worker partition, a shard
process once per shard, and the chaos path once per fault-free segment.
The steps are the operators' kernels: the single-pass step
(:class:`~repro.switch.fuse.FusedProgram`: the packed WHERE stage, then
each pruner's ``process_batch``), the JOIN probe and the HAVING sketch
(:func:`join_probe`, :func:`having_sketch`).  SKYLINE is
the one operator whose switch forwards something other than the arriving
entry — the *carried* point — so :func:`skyline_stream` returns a point
array.

Completion is likewise one function per direction:
:func:`single_pass_partial` gathers only the streamed columns for a set
of row ids and reduces them to a partial, :func:`merge_single_pass`
merges partials.  A sequential or packed run is the one-partial
case of what the sharded runner does with one partial per shard.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Sequence, Tuple, Union

import numpy as np

from ..core.groupby import master_groupby
from ..core.topn import master_topn
from ..errors import PlanError
from .plan import CountOp, DistinctOp, FilterOp, GroupByOp, Query, TopNOp
from .table import Table

#: The one implicit batch size: what a ``batch_size=None`` run streams in
#: wherever it has no per-entry loop (JOIN, HAVING, SKYLINE, pool shards,
#: packed slots, chaos segments).  Results are batch-invariant.
DEFAULT_BATCH = 65536

#: ``step(slices) -> (masks, any_forward)``: one keep-mask per query over
#: the slice rows plus their union (the §6 forward bit) —
#: :meth:`~repro.switch.fuse.FusedProgram.run_batch`'s contract.
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
