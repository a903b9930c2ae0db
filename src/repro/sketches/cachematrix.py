"""The d×w cache matrices at the heart of Cheetah's stateful pruners.

The paper's DISTINCT, randomized TOP N and GROUP BY algorithms all share
one hardware layout: ``d`` register indexes per stage across ``w`` stages,
viewed as a matrix of ``d`` rows and ``w`` columns.  An entry hashes (or is
randomly assigned) to a row and is compared only against the ``w`` cells of
that row — this is how Cheetah fits "compare against many past entries"
into a pipeline with a handful of ALUs per stage.

Three row disciplines cover the paper's variants:

* :class:`CacheMatrix` with ``policy="lru"`` — rolling replacement where a
  hit refreshes recency (DISTINCT's default).
* :class:`CacheMatrix` with ``policy="fifo"`` — rolling replacement that
  ignores hits (cheaper: same-stage ALUs share memory; Table 2's FIFO row).
* :class:`RollingMinMatrix` — each row keeps the ``w`` largest values seen,
  maintained as the paper's rolling minimum (randomized TOP N, Fig. 2).
"""

from __future__ import annotations

import math

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from .hashing import Hashable, hash_range, hash_range_batch

_EMPTY = object()


def _iter_row_groups(rows: np.ndarray):
    """Yield ``(row, positions)`` groups of a row-assignment array.

    ``positions`` are the original stream positions of every entry hashed
    to ``row``, in stream order (stable sort), so replaying a group
    sequentially reproduces exactly the scalar per-row state transitions.
    """
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    boundaries = np.flatnonzero(sorted_rows[1:] != sorted_rows[:-1]) + 1
    for group in np.split(order, boundaries):
        yield int(rows[group[0]]), group


class CacheMatrix:
    """A ``d x w`` matrix of per-row caches with rolling replacement.

    ``lookup_insert`` is the single dataplane operation: it reports whether
    the value was already cached in its row and, if not, installs it by
    shifting the row (new value in column 0, old column ``w-1`` evicted) —
    exactly the paper's "replace the first with the new entry, the second
    with the first, etc." rolling scheme.
    """

    def __init__(self, rows: int, cols: int, policy: str = "lru", seed: int = 0) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        if policy not in ("lru", "fifo"):
            raise ConfigurationError(f"unknown policy {policy!r}; use 'lru' or 'fifo'")
        self.rows = rows
        self.cols = cols
        self.policy = policy
        self._seed = seed
        self._cells: List[List[object]] = [[_EMPTY] * cols for _ in range(rows)]
        #: Row hits observed (value already cached).
        self.hits = 0
        #: Row misses observed (value installed).
        self.misses = 0
        #: Values evicted by rolling replacement (a miss into a full row).
        self.evictions = 0

    @property
    def seed(self) -> int:
        """The row-hash seed (part of the matrix's hash-config identity)."""
        return self._seed

    def row_of(self, value: Hashable) -> int:
        """Deterministic row assignment (same value -> same row)."""
        return hash_range(value, self.rows, self._seed ^ 0xD15C)

    def contains(self, value: Hashable, row: Optional[int] = None) -> bool:
        """Probe without mutating (not a dataplane op; used by tests)."""
        if row is None:
            row = self.row_of(value)
        return value in self._cells[row]

    def lookup_insert(self, value: Hashable, row: Optional[int] = None) -> bool:
        """Return True on a row hit; install the value on a miss.

        On a hit under LRU the value is moved to column 0 (refreshed); under
        FIFO the row is untouched.  On a miss the row shifts right and the
        value lands in column 0.
        """
        if row is None:
            row = self.row_of(value)
        cells = self._cells[row]
        if value in cells:
            self.hits += 1
            if self.policy == "lru":
                cells.remove(value)
                cells.insert(0, value)
            return True
        self.misses += 1
        cells.insert(0, value)
        if cells.pop() is not _EMPTY:
            self.evictions += 1
        return False

    def row_of_batch(
        self, values: Sequence[Hashable], canonical: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized :meth:`row_of` over a value array.

        ``canonical`` lets the fused dataplane reuse one
        :func:`~repro.sketches.hashing.canonical_batch` pass across
        every hash that touches the same column.
        """
        return hash_range_batch(
            values, self.rows, self._seed ^ 0xD15C, canonical=canonical
        ).astype(np.int64)

    def lookup_insert_batch(
        self, values: Sequence[Hashable], rows: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Chunked batch driver for :meth:`lookup_insert`.

        Row assignment is vectorized; within each row the entries are
        replayed sequentially in stream order, because the hit/miss result
        of each lookup depends on the row state left by the previous one.
        The returned hit array and the final matrix state are therefore
        exactly what the scalar loop would produce.
        """
        count = len(values)
        hits = np.zeros(count, dtype=bool)
        if count == 0:
            return hits
        if rows is None:
            rows = self.row_of_batch(values)
        for row, positions in _iter_row_groups(rows):
            for pos in positions:
                hits[pos] = self.lookup_insert(values[pos], row)
        return hits

    def clear(self) -> None:
        """Empty every row (query teardown / switch reboot)."""
        self._cells = [[_EMPTY] * self.cols for _ in range(self.rows)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def corrupt_cell(self, row: int, col: int, garbage: object) -> str:
        """Overwrite one cell with a phantom value (fault injection).

        A phantom cached value makes the matrix claim it has "seen" an
        entry it never did — for DISTINCT that wrongly prunes the first
        real occurrence, which is why injected corruption is escalated to
        a reboot rather than left in place.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"cell ({row}, {col}) out of range for {self.rows}x{self.cols}"
            )
        previous = self._cells[row][col]
        self._cells[row][col] = garbage
        was = "empty" if previous is _EMPTY else repr(previous)
        return f"cache[{row}][{col}] {was} -> {garbage!r}"

    def observe_health(self, registry, **labels: object) -> None:
        """Publish occupancy, fill ratio, and hit/eviction totals as gauges."""
        registry.gauge(
            "cache_matrix_occupancy", "Cached values across all rows.", **labels
        ).set(self.occupancy())
        registry.gauge(
            "cache_matrix_fill_ratio", "Occupied fraction of the d*w cells.", **labels
        ).set(self.occupancy() / (self.rows * self.cols))
        registry.gauge(
            "cache_matrix_hits", "Row hits (value already cached).", **labels
        ).set(self.hits)
        registry.gauge(
            "cache_matrix_misses", "Row misses (value installed).", **labels
        ).set(self.misses)
        registry.gauge(
            "cache_matrix_evictions", "Values evicted by rolling replacement.", **labels
        ).set(self.evictions)

    def row_values(self, row: int) -> List[object]:
        """The cached values of ``row`` in recency order (tests/inspection)."""
        return [cell for cell in self._cells[row] if cell is not _EMPTY]

    def occupancy(self) -> int:
        """Total number of cached values across all rows."""
        return sum(1 for row in self._cells for cell in row if cell is not _EMPTY)

    def sram_bits(self, value_bits: int = 64) -> int:
        """SRAM footprint per Table 2: ``(d*w) x value_bits``."""
        return self.rows * self.cols * value_bits


class RollingMinMatrix:
    """A ``d x w`` matrix where each row keeps its ``w`` largest values.

    The dataplane operation ``offer`` pushes a value through a row kept in
    descending order: at each column the larger of (incoming, stored) stays
    and the smaller continues — the paper's rolling minimum.  A value that
    exits the last column smaller than everything stored is *prunable*.

    Rows are selected by the caller (randomized TOP N assigns rows uniformly
    at random; GROUP BY hashes the key) via the ``row`` argument.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        self.rows = rows
        self.cols = cols
        self._cells: List[List[Optional[float]]] = [[None] * cols for _ in range(rows)]
        #: Values offered to any row.
        self.offers = 0
        #: Offers rejected (value below a full row's minimum — prunable).
        self.rejected = 0

    def offer(self, value: float, row: int) -> bool:
        """Push ``value`` through ``row``; return True if it was pruned.

        Pruned means the row was full and ``value`` was strictly smaller
        than all ``w`` stored values — since each stored value was itself
        forwarded on arrival, a pruned value provably has ``w`` forwarded
        row-mates above it.  Any other value is forwarded; if it displaces
        the rolling minimum, the old minimum simply leaves switch memory
        (it was already forwarded).
        """
        if not 0 <= row < self.rows:
            raise ConfigurationError(f"row {row} out of range [0, {self.rows})")
        self.offers += 1
        cells = self._cells[row]
        if cells[-1] is not None and value < cells[-1]:
            # Full row, value below its minimum: nothing to update.
            self.rejected += 1
            return True
        kept = [c for c in cells if c is not None]
        position = 0
        while position < len(kept) and kept[position] >= value:
            position += 1
        kept.insert(position, value)
        kept = kept[: self.cols]
        self._cells[row] = kept + [None] * (self.cols - len(kept))
        return False

    def offer_batch(self, values: Sequence[float], rows: np.ndarray) -> np.ndarray:
        """Chunked batch driver for :meth:`offer`.

        Entries are grouped by target row and replayed sequentially within
        each group in stream order — a row's prune decision depends on the
        values it already holds, so only the grouping is vectorized.
        Returns the per-entry pruned flags the scalar loop would return.
        """
        count = len(values)
        pruned = np.zeros(count, dtype=bool)
        if count == 0:
            return pruned
        rows = np.asarray(rows)
        for row, positions in _iter_row_groups(rows):
            for pos in positions:
                pruned[pos] = self.offer(float(values[pos]), row)
        return pruned

    def row_values(self, row: int) -> List[float]:
        """Stored values of ``row``, largest first."""
        return [cell for cell in self._cells[row] if cell is not None]

    def minimum(self, row: int) -> Optional[float]:
        """Smallest stored value of a full row, or None when not full."""
        cells = self._cells[row]
        if cells[-1] is None:
            return None
        return cells[-1]

    def occupancy(self) -> int:
        """Total number of stored values across all rows."""
        return sum(1 for row in self._cells for cell in row if cell is not None)

    def clear(self) -> None:
        """Empty every row."""
        self._cells = [[None] * self.cols for _ in range(self.rows)]
        self.offers = 0
        self.rejected = 0

    def corrupt_cell(self, row: int, col: int, value: float) -> str:
        """Overwrite one stored minimum with ``value`` (fault injection).

        The row is re-sorted descending afterwards so the matrix's
        invariant holds; a huge phantom value raises the row minimum and
        can wrongly prune genuine top-N entries.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"cell ({row}, {col}) out of range for {self.rows}x{self.cols}"
            )
        previous = self._cells[row][col]
        kept = [cell for i, cell in enumerate(self._cells[row]) if i != col and cell is not None]
        kept.append(float(value))
        kept.sort(reverse=True)
        self._cells[row] = kept + [None] * (self.cols - len(kept))
        return f"rollingmin[{row}][{col}] {previous!r} -> {value!r}"

    def observe_health(self, registry, **labels: object) -> None:
        """Publish occupancy and offer/reject totals as gauges."""
        registry.gauge(
            "rolling_min_occupancy", "Stored values across all rows.", **labels
        ).set(self.occupancy())
        registry.gauge(
            "rolling_min_fill_ratio", "Occupied fraction of the d*w cells.", **labels
        ).set(self.occupancy() / (self.rows * self.cols))
        registry.gauge(
            "rolling_min_offers", "Values offered to any row.", **labels
        ).set(self.offers)
        registry.gauge(
            "rolling_min_rejected", "Offers below a full row's minimum.", **labels
        ).set(self.rejected)

    def sram_bits(self, value_bits: int = 64) -> int:
        """SRAM footprint per Table 2: ``(d*w) x value_bits``."""
        return self.rows * self.cols * value_bits


class KeyedAggregateMatrix:
    """A ``d x w`` matrix caching ``(key, aggregate)`` pairs per row.

    Used by GROUP BY pruning with MIN/MAX aggregates: each row caches up to
    ``w`` keys with their running aggregate.  ``observe`` returns whether
    the entry can be pruned (key cached and the new value does not improve
    its aggregate).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        better: Callable[[float, float], bool],
        seed: int = 0,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        self.rows = rows
        self.cols = cols
        self._better = better
        self._seed = seed
        self._cells: List[List[Optional[Tuple[Hashable, float]]]] = [
            [None] * cols for _ in range(rows)
        ]
        #: Observations where the cached aggregate already dominated (pruned).
        self.hits = 0
        #: Observations that updated a cached key's aggregate.
        self.updates = 0
        #: Observations that installed a new key.
        self.inserts = 0
        #: Keys evicted by rolling replacement.
        self.evictions = 0

    @property
    def seed(self) -> int:
        """The row-hash seed (part of the matrix's hash-config identity)."""
        return self._seed

    def row_of(self, key: Hashable) -> int:
        """Deterministic row assignment for ``key``."""
        return hash_range(key, self.rows, self._seed ^ 0x6B)

    def row_of_batch(
        self, keys: Sequence[Hashable], canonical: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Vectorized :meth:`row_of` over a key array.

        ``canonical`` reuses a shared ``canonical_batch`` pass, exactly
        as in :meth:`CacheMatrix.row_of_batch`.
        """
        return hash_range_batch(
            keys, self.rows, self._seed ^ 0x6B, canonical=canonical
        ).astype(np.int64)

    def observe(
        self, key: Hashable, value: float, row: Optional[int] = None
    ) -> bool:
        """Process one entry; return True when it is safe to prune.

        Safe to prune means the key is cached in its row with an aggregate
        at least as good, so this entry cannot change the group's result.
        A new or improved key updates the cache (rolling replacement on
        insertion) and is forwarded.  ``row`` short-circuits the row hash
        when the caller has already computed it (the batch driver).
        """
        if row is None:
            row = self.row_of(key)
        cells = self._cells[row]
        for col, cell in enumerate(cells):
            if cell is not None and cell[0] == key:
                if self._better(value, cell[1]):
                    cells[col] = (key, value)
                    self.updates += 1
                    return False
                self.hits += 1
                return True
        cells.insert(0, (key, value))
        self.inserts += 1
        if cells.pop() is not None:
            self.evictions += 1
        return False

    def observe_batch(
        self,
        keys: Sequence[Hashable],
        values: Sequence[float],
        rows: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Chunked batch driver for :meth:`observe`.

        Row assignment is vectorized; each row's entries replay
        sequentially in stream order because a key's prune decision
        depends on the aggregate left by its previous occurrences.
        ``rows`` short-circuits the row hash when the caller (the fused
        dataplane) already computed it from a shared digest.
        """
        count = len(keys)
        pruned = np.zeros(count, dtype=bool)
        if count == 0:
            return pruned
        if rows is None:
            rows = self.row_of_batch(keys)
        for row, positions in _iter_row_groups(rows):
            for pos in positions:
                pruned[pos] = self.observe(keys[pos], float(values[pos]), row)
        return pruned

    def cached_keys(self, row: int) -> List[Hashable]:
        """Keys currently cached in ``row``."""
        return [cell[0] for cell in self._cells[row] if cell is not None]

    def occupancy(self) -> int:
        """Total number of cached keys across all rows."""
        return sum(1 for row in self._cells for cell in row if cell is not None)

    def clear(self) -> None:
        """Empty every row."""
        self._cells = [[None] * self.cols for _ in range(self.rows)]
        self.hits = 0
        self.updates = 0
        self.inserts = 0
        self.evictions = 0

    def corrupt_cell(self, row: int, col: int, key: object, aggregate: float) -> str:
        """Overwrite one cell with a phantom ``(key, aggregate)`` pair.

        A phantom group can shadow a real key's slot and absorb its
        updates under a wrong aggregate — undetectable downstream, hence
        escalated to a reboot by the degradation policy.
        """
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"cell ({row}, {col}) out of range for {self.rows}x{self.cols}"
            )
        previous = self._cells[row][col]
        self._cells[row][col] = (key, float(aggregate))
        return f"groupby[{row}][{col}] {previous!r} -> ({key!r}, {aggregate!r})"

    def observe_health(self, registry, **labels: object) -> None:
        """Publish occupancy and hit/update/insert/eviction totals as gauges."""
        registry.gauge(
            "keyed_aggregate_occupancy", "Cached keys across all rows.", **labels
        ).set(self.occupancy())
        registry.gauge(
            "keyed_aggregate_fill_ratio", "Occupied fraction of the d*w cells.", **labels
        ).set(self.occupancy() / (self.rows * self.cols))
        registry.gauge(
            "keyed_aggregate_hits", "Observations dominated by the cache.", **labels
        ).set(self.hits)
        registry.gauge(
            "keyed_aggregate_updates", "Observations improving a cached key.", **labels
        ).set(self.updates)
        registry.gauge(
            "keyed_aggregate_inserts", "Observations installing a new key.", **labels
        ).set(self.inserts)
        registry.gauge(
            "keyed_aggregate_evictions", "Keys evicted by rolling replacement.", **labels
        ).set(self.evictions)

    def sram_bits(self, value_bits: int = 64) -> int:
        """SRAM per Table 2 (key and aggregate words per cell)."""
        return self.rows * self.cols * value_bits * 2


def expected_distinct_pruning(distinct: int, rows: int, cols: int) -> float:
    """Theorem 1's lower bound on the pruned fraction of duplicates.

    ``0.99 * min(w*d / (D*e), 1)`` for a random-order stream with ``D``
    distinct values, valid when ``D > d*ln(200d)``.
    """
    if distinct <= 0:
        return 1.0
    return 0.99 * min(cols * rows / (distinct * math.e), 1.0)
