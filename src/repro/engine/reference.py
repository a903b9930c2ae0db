"""Ground-truth executor: what an unassisted Spark master computes.

The pruning contract says Cheetah's output must equal these results
exactly; the cluster runner and the test suite both compare against this
module.  Implementations favour clarity (and numpy where natural) over
speed — they are oracles, not the benchmarked path.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Set, Tuple

import numpy as np

from ..core.skyline import master_skyline
from ..errors import PlanError
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
from .table import Table

TableMap = Dict[str, Table]


def run_reference(query: Query, tables: TableMap) -> object:
    """Execute ``query`` exactly; the output type depends on the operator."""
    operator = query.operator
    table = _lookup(tables, operator.table)
    if query.where is not None:
        table = table.mask(query.where.mask(table))
    if isinstance(operator, CountOp):
        return int(np.count_nonzero(operator.predicate.mask(table)))
    if isinstance(operator, FilterOp):
        mask = operator.predicate.mask(table)
        return set(np.flatnonzero(mask).tolist())
    if isinstance(operator, DistinctOp):
        return _distinct(table, list(operator.columns))
    if isinstance(operator, TopNOp):
        return _topn(table, operator.order_by, operator.n, operator.descending)
    if isinstance(operator, GroupByOp):
        return _groupby(table, operator.key, operator.value, operator.aggregate)
    if isinstance(operator, HavingOp):
        return _having(
            table, operator.key, operator.value, operator.threshold, operator.aggregate
        )
    if isinstance(operator, JoinOp):
        right = _lookup(tables, operator.right_table)
        return _join_key_counts(table, right, operator.left_on, operator.right_on)
    if isinstance(operator, SkylineOp):
        return _skyline(table, list(operator.columns))
    raise PlanError(f"unknown operator type {type(operator).__name__}")


def _lookup(tables: TableMap, name: str) -> Table:
    try:
        return tables[name]
    except KeyError:
        raise PlanError(f"no table named {name!r}; have {sorted(tables)}") from None


def _distinct(table: Table, columns: List[str]) -> Set:
    if len(columns) == 1:
        return set(table.column(columns[0]).tolist())
    return set(table.rows(columns))


def _topn(table: Table, order_by: str, n: int, descending: bool = True) -> List[float]:
    values = table.column(order_by).tolist()
    if descending:
        return heapq.nlargest(n, values)
    return heapq.nsmallest(n, values)


def _groupby(table: Table, key: str, value: str, aggregate: str) -> Dict:
    keys = table.column(key)
    values = table.column(value)
    result: Dict = {}
    if aggregate == "max":
        for k, v in zip(keys.tolist(), values.tolist()):
            if k not in result or v > result[k]:
                result[k] = v
    elif aggregate == "min":
        for k, v in zip(keys.tolist(), values.tolist()):
            if k not in result or v < result[k]:
                result[k] = v
    else:
        raise PlanError(f"reference GROUP BY supports min/max, got {aggregate!r}")
    return result


def _having(
    table: Table, key: str, value: str, threshold: float, aggregate: str
) -> Set:
    keys = table.column(key).tolist()
    values = table.column(value).tolist()
    totals: Dict = {}
    for k, v in zip(keys, values):
        if aggregate == "sum":
            totals[k] = totals.get(k, 0) + v
        elif aggregate == "count":
            totals[k] = totals.get(k, 0) + 1
        elif aggregate == "max":
            totals[k] = max(totals.get(k, float("-inf")), v)
        elif aggregate == "min":
            totals[k] = min(totals.get(k, float("inf")), v)
        else:
            raise PlanError(f"unknown HAVING aggregate {aggregate!r}")
    if aggregate == "min":
        return {k for k, total in totals.items() if total < threshold}
    return {k for k, total in totals.items() if total > threshold}


def _join_key_counts(
    left: Table, right: Table, left_on: str, right_on: str
) -> Counter:
    """Join output as ``key -> matched row pairs`` (order-insensitive)."""
    left_counts = Counter(left.column(left_on).tolist())
    right_counts = Counter(right.column(right_on).tolist())
    return Counter(
        {
            key: left_counts[key] * right_counts[key]
            for key in left_counts
            if key in right_counts
        }
    )


def _skyline(table: Table, columns: List[str]) -> Set[Tuple]:
    points = [tuple(float(v) for v in row) for row in table.rows(columns)]
    return set(master_skyline(points))
