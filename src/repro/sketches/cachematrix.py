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

The per-entry operations walk Python lists; the batch drivers work on
typed arrays.  The keyed caches first *settle* what they can: one
``key_codes`` pass groups the batch by distinct key, only those keys are
hashed to rows, and a row whose cached keys plus the batch's new keys fit
in its ``w`` cells cannot evict, so each of its decisions follows from
the key's cache entry and earlier occurrences alone, and its final cells
from first or last occurrences.  Every other row, and every TOP N row,
runs *sort-partitioned rounds*: the entries are stable-sorted by row and
round ``k`` updates "the ``k``-th arrival of every row" with a few vector
operations in which no two lanes touch one row — ``(lanes, w)`` blocks
for the caches, and for the rolling minimum ``w`` column planes whose
busiest-first rows make each round a prefix slice.  The few busiest rows'
last lanes run per lane instead, and a batch the arrays cannot hold
exactly replays per entry.
"""

from __future__ import annotations

import math
import operator

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from .hashing import Hashable, hash_range, hash_range_batch, key_codes, stable_order

_EMPTY = object()

#: The one dtype the arrays use for each kind of numeric cell.
_WIDE = {"i": np.dtype(np.int64), "u": np.dtype(np.uint64), "f": np.dtype(np.float64)}

#: A vector round costs a few dozen numpy calls whatever its width: with
#: fewer lanes than this, replaying them per entry is cheaper.
_FEW_LANES = 48

#: A run of one key longer than this folds with one ``accumulate`` call;
#: the shorter ones share a doubling scan of at most five passes.
_LONG_RUN = 32


def engages(count: int, rows: int) -> bool:
    """Whether a ``count``-entry batch takes the vector path of a
    ``rows``-row matrix.

    Temporary: see ROADMAP 1(a).  The ledger's ``peak_rss_mb`` counts the
    samples its harness retains, so faster short slices on ``serve_burst``
    fail that bound; until then they keep the per-entry replay.
    """
    return count >= rows


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


def _numeric(values) -> Optional[np.ndarray]:
    """``values`` in its 64-bit dtype when it is a 1-D int, uint or
    all-finite float array — what the typed cells hold exactly — else None."""
    if not isinstance(values, np.ndarray) or values.ndim != 1:
        return None
    wide = _WIDE.get(values.dtype.kind)
    if wide is None or values.dtype.itemsize > wide.itemsize:
        return None
    typed = values.astype(wide, copy=False)
    return typed if wide.kind != "f" or np.isfinite(typed).all() else None


def _exactly(cells: Sequence, dtype: np.dtype) -> Optional[np.ndarray]:
    """List-form ``cells`` as a ``dtype`` array, or None unless every one
    is a number of that kind the array gives back unchanged."""
    number = (float, np.floating) if dtype.kind == "f" else (int, np.integer)
    if not all(isinstance(c, number) and not isinstance(c, bool) for c in cells):
        return None
    try:
        typed = np.array(cells, dtype=dtype)
    except OverflowError:
        return None
    exact = typed.tolist() == list(cells)  # no wrap-around, no NaN
    return typed if exact and _numeric(typed) is not None else None


def _schedule(rows: np.ndarray):
    """Conflict-free rounds over lanes already sorted by row.

    Round ``k`` is the positions of the ``k``-th lane of every row that
    has one: no two lanes of a round share a row, and a row sees its lanes
    in order.  Rounds stop once fewer than ``_FEW_LANES`` rows have a lane
    left; the second result is what those busiest rows still hold, for
    :meth:`_RowMatrix._each` to run one lane at a time.
    """
    if not len(rows):
        return [], np.empty(0, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    counts = np.diff(np.r_[starts, len(rows)])
    top = int(counts.max())
    busiest_first = stable_order(top - counts, top + 1)
    starts, counts = starts[busiest_first], counts[busiest_first]
    # waiting[k]: how many rows have a k-th lane; it only falls as k grows.
    waiting = np.searchsorted(-counts, -np.arange(top + 1))
    vector = int(np.count_nonzero(waiting >= _FEW_LANES))
    rounds = [starts[: waiting[k]] + k for k in range(vector)]
    # The busiest rows' lanes from the ``vector``-th on, row after row.
    extra = counts[: waiting[vector]] - vector
    skip = starts[: waiting[vector]] + vector - (np.cumsum(extra) - extra)
    return rounds, np.repeat(skip, extra) + np.arange(int(extra.sum()))


def _lanes(rows: np.ndarray, keys: np.ndarray):
    """Where each run of one key inside one row begins, in a batch sorted
    by row, with that run's row and key: the lanes of a keyed batch."""
    start = np.flatnonzero(np.r_[True, (rows[1:] != rows[:-1]) | (keys[1:] != keys[:-1])])
    return start, rows[start], keys[start]


def _running_best(best: np.ufunc, values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Inclusive running ``best`` (``np.maximum``/``np.minimum``) of
    ``values`` inside each of the contiguous runs ``lengths`` cut it into.
    A run longer than ``_LONG_RUN`` folds in one ``accumulate``; the short
    ones, gathered, take a doubling scan that is over once no two entries
    ``span`` apart share a run."""
    out = np.empty_like(values)
    ends, long = np.cumsum(lengths), lengths > _LONG_RUN
    for lo, hi in zip((ends - lengths)[long].tolist(), ends[long].tolist()):
        best.accumulate(values[lo:hi], out=out[lo:hi])
    short = np.repeat(~long, lengths)
    folded = values[short]
    run = np.repeat(np.flatnonzero(~long).astype(np.int32), lengths[~long])
    span = 1
    while span < len(folded):
        same = run[span:] == run[:-span]
        if not same.any():
            break
        folded[span:] = np.where(same, best(folded[span:], folded[:-span]), folded[span:])
        span *= 2
    out[short] = folded
    return out


def _records(better, best, values, lengths, held):
    """The entries a MAX/MIN cache forwards, in ``values`` cut into runs of
    one key (``lengths`` long, stream order inside each): those beating
    their run's ``held`` aggregate and every earlier entry of the run.
    Returns their indexes and runs.  An entry not beating ``held`` cannot
    raise the running best of those that do, so only those are folded."""
    run = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    rival = np.flatnonzero(better(values, held[run]))
    run, rivals = run[rival], values[rival]
    folded = _running_best(best, rivals, np.bincount(run, minlength=len(lengths)))
    lead = np.ones(len(rival), dtype=bool)
    lead[1:] = (run[1:] != run[:-1]) | better(rivals[1:], folded[:-1])
    return rival[lead], run[lead]


class _RowMatrix:
    """``d x w`` cells held in exactly one form at a time.

    *List form* (``_cells``: ``d`` lists of ``w`` cells, ``_VACANT`` in the
    empty ones) is what the per-entry operations walk.  *Array form*
    (``_planes``: a typed ``(d, w)`` array per field of a cell; ``_fill``:
    how many leading cells of each row are occupied) is what the rounds
    update.  A cleared matrix holds neither and the first operation picks;
    one arriving in the other form converts the whole matrix once.
    Inspection reads either form without converting.
    """

    _VACANT: object = None
    #: Words per cell; gauge-name prefix; what a cell holds; each counter
    #: the matrix keeps, with the help text of the gauge publishing it.
    _FIELDS, _GAUGES, _HELD, _TOTALS = 1, "", "", ()

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ConfigurationError(
                f"matrix dimensions must be positive, got rows={rows} cols={cols}"
            )
        self.rows = rows
        self.cols = cols
        self.clear()

    def clear(self) -> None:
        """Empty every row and zero the counters (new query / switch reboot)."""
        self._cells: Optional[List[list]] = None
        self._planes: Optional[List[np.ndarray]] = None
        self._fill: Optional[np.ndarray] = None
        for name, _ in self._TOTALS:
            setattr(self, name, 0)

    def _listed(self) -> List[list]:
        """The cells in list form, converted from the arrays if need be."""
        if self._cells is None:
            vacant, cols = self._VACANT, self.cols
            if self._planes is None:  # the common case: a fresh or cleared matrix
                self._cells = [[vacant] * cols for _ in range(self.rows)]
            else:
                rows = map(self.row_values, range(self.rows))
                self._cells = [c + [vacant] * (cols - len(c)) for c in rows]
                self._planes = self._fill = None
        return self._cells

    def _arrayed(self, count: int, *dtypes: np.dtype) -> bool:
        """Hold the cells as ``dtypes`` arrays for a ``count``-entry batch.

        False — the caller replays — when the batch is too short to start
        on (a matrix already in array form stays there) or the cells are
        not all such numbers in a prefix of their row (str/tuple keys, a
        chaos phantom cell, another dtype kind).
        """
        if self._planes is not None:
            return all(p.dtype == d for p, d in zip(self._planes, dtypes))
        if not engages(count, self.rows):
            return False
        planes = [np.zeros((self.rows, self.cols), dtype=d) for d in dtypes]
        fill = np.zeros(self.rows, dtype=np.int64)
        if self._cells is not None:
            kept = [[c for c in row if c is not self._VACANT] for row in self._cells]
            if any(a is not b for k, row in zip(kept, self._cells) for a, b in zip(k, row)):
                return False
            fill[:] = [len(k) for k in kept]
            flat = [cell for k in kept for cell in k]
            occupied = np.arange(self.cols) < fill[:, None]
            for plane, field in zip(planes, [flat] if len(planes) == 1 else zip(*flat)):
                typed = _exactly(field, plane.dtype)
                if typed is None:
                    return False
                plane[occupied] = typed
        self._cells, self._planes, self._fill = None, planes, fill
        return True

    def _each(self, rows: np.ndarray, one: Callable[[int, int], bool]) -> List[bool]:
        """``one(i, rows[i])``, a per-entry operation, for every ``i``.

        These are a batch's late lanes (:func:`_schedule`), in a few rows:
        a dict of just those rows stands in for the list form meanwhile.
        """
        planes, fill, vacant, rows = self._planes, self._fill, self._VACANT, rows.tolist()
        listed = {row: self.row_values(row) for row in set(rows)}
        self._planes = self._fill = None
        self._cells = {r: c + [vacant] * (self.cols - len(c)) for r, c in listed.items()}
        try:
            return [one(i, row) for i, row in enumerate(rows)]
        finally:
            for row, cells in self._cells.items():
                kept = [c for c in cells if c is not vacant]
                fill[row] = len(kept)
                for plane, field in zip(planes, [kept] if len(planes) == 1 else zip(*kept)):
                    plane[row, : len(kept)] = field
            self._cells, self._planes, self._fill = None, planes, fill

    def _keyed(self, keys: np.ndarray):
        """A hashed batch's distinct keys — one ``key_codes`` pass — their
        rows, hashed over the distinct keys only, and each entry's key.
        None when a float batch holds a zero (``-0.0 == 0.0`` while their
        rows differ)."""
        if keys.dtype.kind == "f" and not keys.all():
            return None
        key, key_of = key_codes(keys)
        return key, self.row_of_batch(key), key_of

    def _fits(self, key: np.ndarray, row: np.ndarray):
        """Where each distinct key is cached (its first matching column),
        and whether its row can take every new key of the batch without an
        eviction — a row that can settles in closed form."""
        cells, fill = self._planes[0], self._fill
        match = (cells[row] == key[:, None]) & (np.arange(self.cols) < fill[row][:, None])
        cached = match.any(axis=1)
        new = np.bincount(row[~cached], minlength=self.rows)
        return cached, match.argmax(axis=1), (fill + new <= self.cols)[row]

    def _rebuild(self, row, fields, when, vacated=()) -> None:
        """Rows that settled, rewritten: the cells ``fields`` of ``row``
        go in front, the latest ``when`` first, then the row's other
        occupied cells in column order, bar those ``vacated`` (row and
        column arrays).  No row may overflow."""
        if not len(row):
            return
        fill, bound = self._fill, int(when.max()) + 1
        mark = np.zeros(self.rows, dtype=bool)
        mark[row] = True
        touched = np.flatnonzero(mark)
        kept = np.arange(self.cols) < fill[touched][:, None]
        if len(vacated):
            kept[np.searchsorted(touched, vacated[0]), vacated[1]] = False
        cell_at, cell_col = np.nonzero(kept)
        cell_row = touched[cell_at]
        at = np.concatenate((row, cell_row))
        rank = np.concatenate((bound - 1 - when, bound + cell_col))
        ranked = np.argsort(at * (bound + self.cols) + rank)
        at = at[ranked]
        col = np.arange(len(at)) - np.searchsorted(at, at)
        for plane, field in zip(self._planes, fields):
            plane[at, col] = np.concatenate((field, plane[cell_row, cell_col]))[ranked]
        fill[touched] = np.bincount(at, minlength=self.rows)[touched]

    def row_values(self, row: int) -> list:
        """``row``'s occupied cells in column order — most recent first in a
        cache, largest first in a rolling minimum — as Python values."""
        if self._cells is not None:
            return [c for c in self._cells[row] if c is not self._VACANT]
        if self._planes is None:
            return []
        fields = [p[row, : self._fill[row]].tolist() for p in self._planes]
        return fields[0] if len(fields) == 1 else list(zip(*fields))

    def _cell_of(self, row: int, col: int) -> list:
        """The list-form row holding cell ``(row, col)`` (fault injection)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(
                f"cell ({row}, {col}) out of range for {self.rows}x{self.cols}"
            )
        return self._listed()[row]

    def occupancy(self) -> int:
        """Total number of occupied cells across all rows."""
        if self._cells is not None:
            vacant = self._VACANT
            return sum(1 for row in self._cells for c in row if c is not vacant)
        return 0 if self._fill is None else int(self._fill.sum())

    def observe_health(self, registry, **labels: object) -> None:
        """Publish occupancy, fill ratio and the counters as gauges."""
        occupancy = self.occupancy()
        gauges = [
            ("occupancy", f"{self._HELD} across all rows.", occupancy),
            ("fill_ratio", "Occupied fraction of the d*w cells.",
             occupancy / (self.rows * self.cols)),
            *((name, text, getattr(self, name)) for name, text in self._TOTALS),
        ]
        for name, text, value in gauges:
            registry.gauge(f"{self._GAUGES}_{name}", text, **labels).set(value)

    def sram_bits(self) -> int:
        """SRAM footprint per Table 2: ``(d*w) x 64b`` per cell field."""
        return self.rows * self.cols * 64 * self._FIELDS


class CacheMatrix(_RowMatrix):
    """A ``d x w`` matrix of per-row caches with rolling replacement.

    ``lookup_insert`` is the single dataplane operation: it reports whether
    the value was already cached in its row and, if not, installs it by
    shifting the row (new value in column 0, old column ``w-1`` evicted) —
    exactly the paper's "replace the first with the new entry, the second
    with the first, etc." rolling scheme.
    """

    _VACANT = _EMPTY
    _GAUGES, _HELD = "cache_matrix", "Cached values"
    _TOTALS = (
        ("hits", "Row hits (value already cached)."),
        ("misses", "Row misses (value installed)."),
        ("evictions", "Values evicted by rolling replacement."),
    )

    def __init__(self, rows: int, cols: int, policy: str = "lru", seed: int = 0) -> None:
        super().__init__(rows, cols)
        if policy not in ("lru", "fifo"):
            raise ConfigurationError(f"unknown policy {policy!r}; use 'lru' or 'fifo'")
        self.policy = policy
        self._seed = seed

    @property
    def seed(self) -> int:
        """The row-hash seed (part of the matrix's hash-config identity)."""
        return self._seed

    def row_of(self, value: Hashable) -> int:
        """Deterministic row assignment (same value -> same row)."""
        return hash_range(value, self.rows, self._seed ^ 0xD15C)

    def lookup_insert(self, value: Hashable, row: Optional[int] = None) -> bool:
        """Return True on a row hit; install the value on a miss.

        On a hit under LRU the value is moved to column 0 (refreshed); under
        FIFO the row is untouched.  On a miss the row shifts right and the
        value lands in column 0.
        """
        if row is None:
            row = self.row_of(value)
        cells = (self._cells or self._listed())[row]
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

    def row_of_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Vectorized :meth:`row_of` over a value array."""
        return hash_range_batch(values, self.rows, self._seed ^ 0xD15C).astype(np.int64)

    def lookup_insert_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Batch driver for :meth:`lookup_insert`.

        Row assignment is vectorized.  An int, uint or finite-float array
        runs as conflict-free rounds (:meth:`_lookup_insert_rounds`), bar
        the rows of a hashed one that cannot evict, which settle in
        closed form (:meth:`_lookup_insert_settled`); anything else
        replays each row's entries in stream order, as a lookup
        depends on the row state the previous one left.  The hit array,
        final cells and counters are exactly the scalar loop's.
        """
        count = len(values)
        hits = np.zeros(count, dtype=bool)
        if count == 0:
            return hits
        typed = _numeric(values)
        if typed is not None and self._arrayed(count, typed.dtype):
            keyed = self._keyed(typed)
            if keyed is not None:
                return self._lookup_insert_settled(typed, *keyed)
            return self._lookup_insert_rounds(typed, self.row_of_batch(typed))
        for row, positions in _iter_row_groups(self.row_of_batch(values)):
            for pos in positions:
                hits[pos] = self.lookup_insert(values[pos], row)
        return hits

    def _lookup_insert_settled(
        self, values: np.ndarray, key: np.ndarray, row: np.ndarray, key_of: np.ndarray
    ) -> np.ndarray:
        """Closed form for the rows that cannot evict; rounds for the rest.

        With no eviction a cached value stays cached, so an entry hits iff
        its value was cached or already occurred in the batch.  An LRU row
        ends with its batch values by last occurrence, latest first, then
        its untouched cells; a FIFO row with its new values by first
        occurrence, then all of its old cells.
        """
        count = len(values)
        cached, col, settles = self._fits(key, row)
        hits = np.ones(count, dtype=bool)
        rest = np.flatnonzero(~settles[key_of])
        if len(rest):
            hits[rest] = self._lookup_insert_rounds(values[rest], row[key_of[rest]])
        new = settles & ~cached
        position = np.arange(count)
        first = np.full(len(key), count)
        np.minimum.at(first, key_of, position)
        hits[first[new]] = False
        misses = int(np.count_nonzero(new))
        self.misses += misses
        self.hits += count - len(rest) - misses
        if self.policy == "fifo":
            self._rebuild(row[new], [key[new]], first[new])
        else:
            last = np.full(len(key), -1)
            np.maximum.at(last, key_of, position)
            moved = settles & cached
            self._rebuild(row[settles], [key[settles]], last[settles], (row[moved], col[moved]))
        return hits

    def _lookup_insert_rounds(self, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sort-partitioned rounds over the array form.

        A run of one value inside a row is one lane: once its first entry
        has run, the value sits in column 0 (LRU) or somewhere in the row
        (FIFO), so the repeats are hits that move nothing.
        """
        (cache,), fill, cols = self._planes, self._fill, self.cols
        order = stable_order(rows, self.rows)
        rows, values = rows[order], values[order]
        first = np.r_[True, (rows[1:] != rows[:-1]) | (values[1:] != values[:-1])]
        hits = ~first
        self.hits += int(np.count_nonzero(hits))
        lane_entry = np.flatnonzero(first)
        rows, values = rows[lane_entry], values[lane_entry]
        columns = np.arange(cols)
        rounds, late = _schedule(rows)
        for lanes in rounds:
            at, value = rows[lanes], values[lanes]
            block, full = cache[at], fill[at]
            match = (block == value[:, None]) & (columns < full[:, None])
            hit = match.any(axis=1)
            hits[lane_entry[lanes]] = hit
            miss = ~hit
            self.hits += int(np.count_nonzero(hit))
            self.misses += int(np.count_nonzero(miss))
            self.evictions += int(np.count_nonzero(full[miss] == cols))
            fill[at[miss]] = np.minimum(full[miss] + 1, cols)
            # A miss shifts the whole row right; an LRU hit only the cells
            # in front of the match; a FIFO hit leaves the row alone.
            upto = np.where(hit, match.argmax(axis=1), cols - 1)
            if self.policy == "fifo":
                at, value, block, upto = at[miss], value[miss], block[miss], upto[miss]
            shift = (columns > 0) & (columns <= upto[:, None])
            block = np.where(shift, np.roll(block, 1, axis=1), block)
            block[:, 0] = value
            cache[at] = block
        value = values[late].tolist()
        hits[lane_entry[late]] = self._each(
            rows[late], lambda i, row: self.lookup_insert(value[i], row)
        )
        out = np.empty(len(hits), dtype=bool)
        out[order] = hits
        return out

    def corrupt_cell(self, row: int, col: int, garbage: object) -> str:
        """Overwrite one cell with a phantom value (fault injection).

        A phantom cached value makes the matrix claim it has "seen" an
        entry it never did — for DISTINCT that wrongly prunes the first
        real occurrence, which is why injected corruption is escalated to
        a reboot rather than left in place.
        """
        cells = self._cell_of(row, col)
        previous = cells[col]
        cells[col] = garbage
        was = "empty" if previous is _EMPTY else repr(previous)
        return f"cache[{row}][{col}] {was} -> {garbage!r}"


class RollingMinMatrix(_RowMatrix):
    """A ``d x w`` matrix where each row keeps its ``w`` largest values.

    The dataplane operation ``offer`` pushes a value through a row kept in
    descending order: at each column the larger of (incoming, stored) stays
    and the smaller continues — the paper's rolling minimum.  A value that
    exits the last column smaller than everything stored is *prunable*.

    Rows are selected by the caller (randomized TOP N assigns rows uniformly
    at random; GROUP BY hashes the key) via the ``row`` argument.
    """

    _GAUGES, _HELD = "rolling_min", "Stored values"
    _TOTALS = (
        ("offers", "Values offered to any row."),
        ("rejected", "Offers below a full row's minimum."),
    )

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
        cells = (self._cells or self._listed())[row]
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
        cells[:] = kept + [None] * (self.cols - len(kept))
        return False

    def offer_batch(self, values: Sequence[float], rows: np.ndarray) -> np.ndarray:
        """Batch driver for :meth:`offer`.

        All-finite values with in-range rows run as conflict-free rounds
        (:meth:`_offer_rounds`); otherwise each row's entries replay in
        stream order — a prune decision depends on what the row holds.
        Pruned flags, cells and counters are exactly the scalar loop's.
        """
        count = len(values)
        pruned = np.zeros(count, dtype=bool)
        if count == 0:
            return pruned
        rows = np.asarray(rows)
        typed = _numeric(values)
        if (
            typed is not None
            and 0 <= rows.min() and rows.max() < self.rows
            and self._arrayed(count, _WIDE["f"])
        ):
            return self._offer_rounds(typed.astype(np.float64, copy=False), rows)
        for row, positions in _iter_row_groups(rows):
            for pos in positions:
                pruned[pos] = self.offer(float(values[pos]), row)
        return pruned

    def _offer_rounds(self, values: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Sort-partitioned rounds over column planes.

        A row's minimum only rises, so a value below the minimum its row
        has when the batch starts is pruned whatever arrives before it:
        one compare settles those and only the rest enter rounds.  The
        rounds hold column ``c`` of every active row as one plane, rows
        busiest first and vacant cells ``-inf``, so round ``k`` is a prefix
        of each plane and an offer is the paper's carry chain: column ``c``
        keeps the larger of (stored, carried), the smaller moves on.  An
        offer below the last column moves nothing and is pruned.
        """
        (kept,), fill, cols = self._planes, self._fill, self.cols
        floor = np.where(fill == cols, kept[:, -1], -np.inf)
        pruned = values < floor[rows]
        settled = int(np.count_nonzero(pruned))
        self.offers += settled
        self.rejected += settled
        entry = np.flatnonzero(~pruned)
        entry = entry[stable_order(rows[entry], self.rows)]
        rows, values = rows[entry], values[entry]
        rounds, late = _schedule(rows)
        if rounds:
            active = rows[rounds[0]]
            block = kept[active]
            block[np.arange(cols) >= fill[active][:, None]] = -np.inf
            planes = block.T.copy()
            low = np.zeros(len(rows), dtype=bool)
            for lanes in rounds:
                width = len(lanes)
                carry = values[lanes]
                low[lanes] = carry < planes[-1, :width]
                # On a tie numpy returns the second operand: the stored
                # value stays in place, as in :meth:`offer`.
                for plane in planes[:, :width]:
                    moved = np.minimum(plane, carry)
                    np.maximum(carry, plane, out=plane)
                    carry = moved
            pruned[entry[low]] = True
            self.offers += sum(map(len, rounds))
            self.rejected += int(np.count_nonzero(low))
            kept[active] = planes.T
            fill[active] = np.count_nonzero(planes > -np.inf, axis=0)
        value = values[late].tolist()
        pruned[entry[late]] = self._each(
            rows[late], lambda i, row: self.offer(value[i], row)
        )
        return pruned

    def minimum(self, row: int) -> Optional[float]:
        """Smallest stored value of a full row, or None when not full."""
        cells = self.row_values(row)
        return cells[-1] if len(cells) == self.cols else None

    def corrupt_cell(self, row: int, col: int, value: float) -> str:
        """Overwrite one stored minimum with ``value`` (fault injection).

        The row is re-sorted descending afterwards so the matrix's
        invariant holds; a huge phantom value raises the row minimum and
        can wrongly prune genuine top-N entries.
        """
        cells = self._cell_of(row, col)
        previous = cells[col]
        kept = [cell for i, cell in enumerate(cells) if i != col and cell is not None]
        kept.append(float(value))
        kept.sort(reverse=True)
        cells[:] = kept + [None] * (self.cols - len(kept))
        return f"rollingmin[{row}][{col}] {previous!r} -> {value!r}"


class KeyedAggregateMatrix(_RowMatrix):
    """A ``d x w`` matrix caching ``(key, aggregate)`` pairs per row.

    Used by GROUP BY pruning with MIN/MAX aggregates: each row caches up to
    ``w`` keys with their running aggregate.  ``observe`` returns whether
    the entry can be pruned (key cached and the new value does not improve
    its aggregate).
    """

    _FIELDS, _GAUGES, _HELD = 2, "keyed_aggregate", "Cached keys"
    _TOTALS = (
        ("hits", "Observations dominated by the cache."),
        ("updates", "Observations improving a cached key."),
        ("inserts", "Observations installing a new key."),
        ("evictions", "Keys evicted by rolling replacement."),
    )

    def __init__(
        self,
        rows: int,
        cols: int,
        better: Callable[[float, float], bool],
        seed: int = 0,
    ) -> None:
        super().__init__(rows, cols)
        self._better = better
        self._seed = seed

    @property
    def seed(self) -> int:
        """The row-hash seed (part of the matrix's hash-config identity)."""
        return self._seed

    def row_of(self, key: Hashable) -> int:
        """Deterministic row assignment for ``key``."""
        return hash_range(key, self.rows, self._seed ^ 0x6B)

    def row_of_batch(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Vectorized :meth:`row_of` over a key array."""
        return hash_range_batch(keys, self.rows, self._seed ^ 0x6B).astype(np.int64)

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
        cells = (self._cells or self._listed())[row]
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
    ) -> np.ndarray:
        """Batch driver for :meth:`observe`.

        Row assignment is vectorized.  Int, uint or finite-float key
        arrays with finite values under a MAX/MIN ``better`` run as
        conflict-free rounds (:meth:`_observe_rounds`), bar the rows of
        hashed keys that cannot evict, which settle in closed form
        (:meth:`_observe_settled`); anything else replays each row's entries in stream order, as a
        key's decision depends on the aggregate its earlier occurrences
        left.
        """
        count = len(keys)
        pruned = np.zeros(count, dtype=bool)
        if count == 0:
            return pruned
        typed_keys, typed = _numeric(keys), _numeric(values)
        if (
            typed_keys is not None
            and typed is not None
            and self._better in (operator.gt, operator.lt)
            and self._arrayed(count, typed_keys.dtype, _WIDE["f"])
        ):
            typed = typed.astype(np.float64, copy=False)
            keyed = self._keyed(typed_keys)
            if keyed is not None:
                return self._observe_settled(typed_keys, typed, *keyed)
            return self._observe_rounds(typed_keys, typed, self.row_of_batch(typed_keys))
        for row, positions in _iter_row_groups(self.row_of_batch(keys)):
            for pos in positions:
                pruned[pos] = self.observe(keys[pos], float(values[pos]), row)
        return pruned

    def _order(self):
        """``better``, ``best`` and the aggregate of a key not yet seen,
        as numpy operations: MAX's or MIN's."""
        if self._better is operator.gt:
            return np.greater, np.maximum, -np.inf
        return np.less, np.minimum, np.inf

    def _observe_settled(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        key: np.ndarray,
        row: np.ndarray,
        key_of: np.ndarray,
    ) -> np.ndarray:
        """Closed form for the rows that cannot evict; rounds for the rest.

        With no eviction a key's cell only ever improves, so an entry is
        forwarded iff it beats its key's cached aggregate and every
        earlier entry of its key.  The last of those is the key's new
        aggregate, written in place; new keys go in at column 0 by first
        occurrence.
        """
        count = len(values)
        (_, aggregate), (better, best, unset) = self._planes, self._order()
        cached, col, settles = self._fits(key, row)
        pruned = np.ones(count, dtype=bool)
        rest = np.flatnonzero(~settles[key_of])
        settled = None
        if len(rest):
            pruned[rest] = self._observe_rounds(keys[rest], values[rest], row[key_of[rest]])
            settled = np.flatnonzero(settles[key_of])
            key_of, values = key_of[settled], values[settled]
        order = stable_order(key_of, len(key))
        lengths = np.bincount(key_of, minlength=len(key))
        held = np.where(cached, aggregate[row, col], unset)
        values = values[order]
        leads, runs = _records(better, best, values, lengths, held)
        position = order if settled is None else settled[order]
        pruned[position[leads]] = False
        new = settles & ~cached
        inserts = int(np.count_nonzero(new))
        self.inserts += inserts
        self.updates += len(leads) - inserts
        self.hits += len(values) - len(leads)
        last = np.r_[runs[1:] != runs[:-1], True] if len(runs) else runs
        final = held.copy()
        final[runs[last]] = values[leads[last]]
        update = settles & cached
        aggregate[row[update], col[update]] = final[update]
        first = position[(np.cumsum(lengths) - lengths)[new]]
        self._rebuild(row[new], [key[new], final[new]], first)
        return pruned

    def _observe_rounds(
        self, keys: np.ndarray, values: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Sort-partitioned rounds over the array form.

        A run of one key inside a row is one lane.  Only an entry beating
        every earlier one of its run can matter, so a running best picks
        those out first; a lane then finds the key's cached aggregate
        (which they must beat too) and writes the run's final one, once —
        in a round, or per lane (:meth:`_merge`) once too few rows are left.
        """
        (cached, aggregate), fill, cols = self._planes, self._fill, self.cols
        better, best, unset = self._order()
        order = stable_order(rows, self.rows)
        values = values[order]
        # The sorted row and key copies live only inside ``_lanes``: held
        # through the rest, they would be the batch's memory peak.
        lane_entry, lane_rows, lane_keys = _lanes(rows[order], keys[order])
        lengths = np.diff(np.r_[lane_entry, len(values)])
        final = best.reduceat(values, lane_entry)
        cached_best = np.full(len(lane_entry), unset)
        columns = np.arange(cols)
        rounds, late = _schedule(lane_rows)
        for lanes in rounds:
            at, key, value = lane_rows[lanes], lane_keys[lanes], final[lanes]
            block, full = cached[at], fill[at]
            match = (block == key[:, None]) & (columns < full[:, None])
            found = match.any(axis=1)
            hit_at, hit_col = at[found], match.argmax(axis=1)[found]
            cached_best[lanes[found]] = held = aggregate[hit_at, hit_col]
            aggregate[hit_at, hit_col] = best(held, value[found])
            new = ~found
            at, full = at[new], full[new]
            cached[at] = np.column_stack((key[new], block[new, :-1]))
            aggregate[at] = np.column_stack((value[new], aggregate[at][:, :-1]))
            fill[at] = np.minimum(full + 1, cols)
            self.evictions += int(np.count_nonzero(full == cols))
        key, value = lane_keys[late].tolist(), final[late].tolist()
        cached_best[late] = self._each(
            lane_rows[late], lambda i, row: self._merge(key[i], value[i], row)
        )
        leads, _ = _records(better, best, values, lengths, cached_best)
        inserted = int(np.count_nonzero(cached_best == unset))
        self.inserts += inserted
        self.updates += len(leads) - inserted
        self.hits += len(values) - len(leads)
        pruned = np.ones(len(values), dtype=bool)
        pruned[order[leads]] = False
        return pruned

    def _merge(self, key: Hashable, aggregate: float, row: int) -> float:
        """Fold a run's ``aggregate`` into ``key``'s cell of ``row`` (list
        form) and return the aggregate it held: ``-inf`` under MAX, ``inf``
        under MIN, when the run installs the key instead."""
        cells = self._cells[row]
        maximum = self._better is operator.gt
        for col, cell in enumerate(cells):
            if cell is not None and cell[0] == key:
                held = cell[1]
                cells[col] = (key, max(held, aggregate) if maximum else min(held, aggregate))
                return held
        cells.insert(0, (key, aggregate))
        if cells.pop() is not None:
            self.evictions += 1
        return -math.inf if maximum else math.inf

    def corrupt_cell(self, row: int, col: int, key: object, aggregate: float) -> str:
        """Overwrite one cell with a phantom ``(key, aggregate)`` pair.

        A phantom group can shadow a real key's slot and absorb its
        updates under a wrong aggregate — undetectable downstream, hence
        escalated to a reboot by the degradation policy.
        """
        cells = self._cell_of(row, col)
        previous = cells[col]
        cells[col] = (key, float(aggregate))
        return f"groupby[{row}][{col}] {previous!r} -> ({key!r}, {aggregate!r})"


def expected_distinct_pruning(distinct: int, rows: int, cols: int) -> float:
    """Theorem 1's lower bound on the pruned fraction of duplicates.

    ``0.99 * min(w*d / (D*e), 1)`` for a random-order stream with ``D``
    distinct values, valid when ``D > d*ln(200d)``.
    """
    if distinct <= 0:
        return 1.0
    return 0.99 * min(cols * rows / (distinct * math.e), 1.0)
