"""OPT oracles: resource-unconstrained streaming pruners (paper §8.3).

Every Fig. 10/11 plot includes "OPT", a hypothetical stream algorithm
with unlimited memory and computation.  OPT upper-bounds the pruning rate
of any switch algorithm: it forwards an entry only when no algorithm
could safely prune it given the stream so far.  These oracles are used as
the comparison series in the pruning-rate benchmarks and as upper bounds
in tests.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, Iterable, List, Sequence, Set, Tuple

from ..core.skyline import Point, weakly_dominates


def opt_distinct_unpruned(stream: Iterable[Hashable]) -> int:
    """OPT for DISTINCT forwards exactly the first occurrence of each value."""
    return len(set(stream))


def opt_distinct_rate(stream: Sequence[Hashable]) -> float:
    """OPT pruning rate for DISTINCT: ``1 - D/m``."""
    if not stream:
        return 0.0
    return 1.0 - opt_distinct_unpruned(stream) / len(stream)


def opt_topn_unpruned(stream: Sequence[float], n: int) -> int:
    """OPT for TOP N forwards entries in the running top-N at arrival.

    This matches the paper's description: the count of entries that were
    among the N largest seen so far when they arrived.
    """
    heap: List[float] = []
    unpruned = 0
    for value in stream:
        if len(heap) < n:
            heapq.heappush(heap, value)
            unpruned += 1
        elif value > heap[0]:
            heapq.heapreplace(heap, value)
            unpruned += 1
    return unpruned


def opt_topn_rate(stream: Sequence[float], n: int) -> float:
    """OPT pruning rate for TOP N."""
    if not stream:
        return 0.0
    return 1.0 - opt_topn_unpruned(stream, n) / len(stream)


def opt_skyline_unpruned(stream: Sequence[Point]) -> int:
    """OPT for SKYLINE forwards points not dominated by any earlier point."""
    seen: List[Point] = []
    unpruned = 0
    for point in stream:
        if not any(weakly_dominates(other, point) for other in seen):
            unpruned += 1
        seen.append(point)
    return unpruned


def opt_skyline_rate(stream: Sequence[Point]) -> float:
    """OPT pruning rate for SKYLINE."""
    if not stream:
        return 0.0
    return 1.0 - opt_skyline_unpruned(stream) / len(stream)


def opt_groupby_unpruned(
    stream: Sequence[Tuple[Hashable, float]], aggregate: str = "max"
) -> int:
    """OPT for MIN/MAX GROUP BY forwards entries improving their group."""
    best: Dict[Hashable, float] = {}
    unpruned = 0
    for key, value in stream:
        current = best.get(key)
        improves = (
            current is None
            or (aggregate == "max" and value > current)
            or (aggregate == "min" and value < current)
        )
        if improves:
            best[key] = value
            unpruned += 1
    return unpruned


def opt_groupby_rate(
    stream: Sequence[Tuple[Hashable, float]], aggregate: str = "max"
) -> float:
    """OPT pruning rate for GROUP BY."""
    if not stream:
        return 0.0
    return 1.0 - opt_groupby_unpruned(stream, aggregate) / len(stream)


def opt_join_unpruned(
    left_keys: Sequence[Hashable], right_keys: Sequence[Hashable]
) -> int:
    """OPT for JOIN forwards exactly the entries with a match in the other table."""
    left_set: Set[Hashable] = set(left_keys)
    right_set: Set[Hashable] = set(right_keys)
    matched_left = sum(1 for key in left_keys if key in right_set)
    matched_right = sum(1 for key in right_keys if key in left_set)
    return matched_left + matched_right


def opt_join_rate(
    left_keys: Sequence[Hashable], right_keys: Sequence[Hashable]
) -> float:
    """OPT pruning rate for the JOIN probe pass."""
    total = len(left_keys) + len(right_keys)
    if total == 0:
        return 0.0
    return 1.0 - opt_join_unpruned(left_keys, right_keys) / total


def opt_having_unpruned(stream: Sequence[Tuple[Hashable, float]], threshold: float) -> int:
    """OPT for HAVING SUM forwards one entry per key, at threshold crossing."""
    totals: Dict[Hashable, float] = {}
    crossed: Set[Hashable] = set()
    unpruned = 0
    for key, value in stream:
        totals[key] = totals.get(key, 0.0) + value
        if key not in crossed and totals[key] > threshold:
            crossed.add(key)
            unpruned += 1
    return unpruned


def opt_having_rate(stream: Sequence[Tuple[Hashable, float]], threshold: float) -> float:
    """OPT pruning rate for HAVING."""
    if not stream:
        return 0.0
    return 1.0 - opt_having_unpruned(stream, threshold) / len(stream)
