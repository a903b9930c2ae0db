"""Count-Min sketch, the substrate of Cheetah's HAVING pruner (§4.3).

The paper picks Count-Min over Count sketch precisely for its *one-sided*
error: the estimate never under-counts, so pruning a key whose estimated
SUM is at most the HAVING threshold can never drop a correct output key.
That invariant (``estimate(k) >= true(k)``) is property-tested.

A conservative-update variant is included as a documented extension; it
keeps the one-sided guarantee while tightening estimates, and the ablation
bench compares the two.

The batch path answers HAVING's question itself: ``add_batch`` returns
which entries' running estimate exceeds the threshold.  A key's estimate
only rises inside a batch, so its estimates before and after the batch
settle every key that is already above the threshold or never reaches
it; only the entries of keys that cross it get running sums.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from ..errors import ConfigurationError
from .hashing import (
    Hashable,
    canonical_batch,
    hash_family,
    hash_range_batch,
    key_codes,
    stable_order,
)


def _grouped_running_sum(
    indexes: np.ndarray, amounts: np.ndarray, bound: int
) -> np.ndarray:
    """Inclusive running sum of ``amounts`` within equal-index groups
    (``indexes`` below ``bound``, the sketch width: a narrow sort key).

    ``result[k]`` is the sum of ``amounts[j]`` over ``j <= k`` with
    ``indexes[j] == indexes[k]`` — i.e. what a sequential counter at
    ``indexes[k]`` would read right after the ``k``-th update.  Relies on
    ``amounts >= 0`` (the cumulative sum is non-decreasing, so a
    ``maximum.accumulate`` carries each group's starting offset forward).
    """
    order = stable_order(indexes, bound)
    sorted_idx = indexes[order]
    sorted_amounts = amounts[order]
    csum = np.cumsum(sorted_amounts)
    starts = np.empty(len(indexes), dtype=bool)
    starts[0] = True
    starts[1:] = sorted_idx[1:] != sorted_idx[:-1]
    before_group = np.maximum.accumulate(
        np.where(starts, csum - sorted_amounts, 0)
    )
    running = np.empty(len(indexes), dtype=np.int64)
    running[order] = csum - before_group
    return running


class CountMinSketch:
    """Count-Min sketch with ``depth`` rows of ``width`` counters.

    Parameters
    ----------
    width:
        Counters per row (``w`` in the paper's Table 4).
    depth:
        Number of rows / hash functions (``d``; the paper evaluates 3).
    conservative:
        When true, use conservative update: only raise the counters that
        equal the current minimum.  Estimates stay one-sided but tighter.
    seed:
        Base seed for the row hash functions.
    """

    def __init__(
        self,
        width: int,
        depth: int = 3,
        conservative: bool = False,
        seed: int = 0,
    ) -> None:
        if width <= 0 or depth <= 0:
            raise ConfigurationError(
                f"sketch dimensions must be positive, got width={width} depth={depth}"
            )
        self.width = width
        self.depth = depth
        self.conservative = conservative
        self._hash_fns = hash_family(depth, width, base_seed=seed)
        # The per-row seeds hash_family derives, for the batch path.
        self._seeds = [seed * 0x1000 + i + 1 for i in range(depth)]
        self._rows = np.zeros((depth, width), dtype=np.int64)
        self._total = 0

    def _indexes(self, key: Hashable) -> List[int]:
        return [fn(key) for fn in self._hash_fns]

    def add(self, key: Hashable, amount: int = 1) -> int:
        """Add ``amount`` to ``key`` and return the new estimate.

        ``amount`` must be non-negative: switch register ALUs only
        increment, and a negative update would break one-sidedness.
        """
        if amount < 0:
            raise ConfigurationError(f"negative updates unsupported, got {amount}")
        indexes = self._indexes(key)
        self._total += amount
        if self.conservative:
            current = min(self._rows[r][i] for r, i in enumerate(indexes))
            target = current + amount
            for r, i in enumerate(indexes):
                if self._rows[r][i] < target:
                    self._rows[r][i] = target
            return target
        for r, i in enumerate(indexes):
            self._rows[r][i] += amount
        return min(self._rows[r][i] for r, i in enumerate(indexes))

    def estimate(self, key: Hashable) -> int:
        """Upper-bound estimate of the total amount added for ``key``."""
        return min(self._rows[r][i] for r, i in enumerate(self._indexes(key)))

    def estimate_batch(self, keys: Sequence[Hashable]) -> np.ndarray:
        """Vectorized :meth:`estimate` over a key array."""
        count = len(keys)
        if count == 0:
            return np.zeros(0, dtype=np.int64)
        canon = canonical_batch(keys)
        result = None
        for r, seed in enumerate(self._seeds):
            idx = hash_range_batch(None, self.width, seed, canonical=canon)
            row_vals = self._rows[r][idx.astype(np.int64)]
            result = row_vals if result is None else np.minimum(result, row_vals)
        return result

    def add_batch(
        self,
        keys: Sequence[Hashable],
        amounts: Union[int, Sequence[int]],
        threshold: float,
    ) -> np.ndarray:
        """Vectorized :meth:`add` for HAVING: which entries' running
        estimate — what the scalar ``add`` loop returns entry by entry,
        duplicate keys inside the batch included — exceeds ``threshold``.

        Only the batch's distinct keys are hashed, and each counter grows
        once per key.  A key's running estimate only rises, from at least
        its estimate before the batch to its estimate after it, so a key
        already above the threshold passes every entry and one that stays
        at or below it passes none.  Only the entries of keys crossing it
        inside the batch get running sums: per key where the key owns a
        counter alone, per counter where keys share one.  Conservative
        update is inherently sequential (each update depends on the
        estimate after the previous one), so that variant runs the scalar
        loop.
        """
        count = len(keys)
        amounts_arr = np.broadcast_to(np.asarray(amounts, dtype=np.int64), (count,))
        if np.any(amounts_arr < 0):
            bad = int(amounts_arr[amounts_arr < 0][0])
            raise ConfigurationError(f"negative updates unsupported, got {bad}")
        if count == 0:
            return np.zeros(0, dtype=bool)
        if self.conservative:
            return np.fromiter(
                (self.add(key, int(a)) > threshold for key, a in zip(keys, amounts_arr)),
                dtype=bool,
                count=count,
            )
        distinct, key_of = key_codes(canonical_batch(keys))
        totals = np.zeros(len(distinct), dtype=np.int64)
        np.add.at(totals, key_of, amounts_arr)
        self._total += int(totals.sum())
        cells = np.array(
            [hash_range_batch(None, self.width, seed, canonical=distinct) for seed in self._seeds],
            dtype=np.int64,
        )
        depth = np.arange(self.depth)[:, None]
        before = self._rows[depth, cells]
        for row, at in zip(self._rows, cells):
            np.add.at(row, at, totals)
        above = before.min(axis=0) > threshold
        crossing = ~above & (self._rows[depth, cells].min(axis=0) > threshold)
        passes = above[key_of]
        if crossing.any():
            at, estimates = self._running(cells, before, key_of, amounts_arr, crossing)
            passes[at] = estimates > threshold
        return passes

    def _running(self, cells, before, key_of, amounts, crossing):
        """The entries of the ``crossing`` keys and their running estimates,
        from the counters ``before`` the batch: the key's own running sum
        over the lowest counter it owns alone, or a counter's running sum
        where it shares one."""
        at = np.flatnonzero(crossing[key_of])
        mine = key_of[at]
        own = _grouped_running_sum(mine, amounts[at], len(crossing))
        shares = np.array([np.bincount(c, minlength=self.width)[c] > 1 for c in cells])
        base = np.where(shares, np.iinfo(np.int64).max, before).min(axis=0)[mine]
        for r in np.flatnonzero((shares & crossing).any(axis=1)):
            # Every entry on a counter a crossing key shares, re-summed by counter.
            needed = np.zeros(self.width, dtype=bool)
            needed[cells[r][shares[r] & crossing]] = True
            on = np.flatnonzero(needed[cells[r][key_of]])
            sums = _grouped_running_sum(cells[r][key_of[on]], amounts[on], self.width)
            ours = np.searchsorted(at, on)
            ours[ours == len(at)] = 0
            hit = at[ours] == on
            ours = ours[hit]
            floor = before[r][key_of[on[hit]]] + sums[hit] - own[ours]
            base[ours] = np.minimum(base[ours], floor)
        return at, base + own

    def update(self, pairs: Iterable[Tuple[Hashable, int]]) -> None:
        """Add a stream of ``(key, amount)`` pairs."""
        for key, amount in pairs:
            self.add(key, amount)

    def clear(self) -> None:
        """Zero all counters."""
        self._rows = np.zeros((self.depth, self.width), dtype=np.int64)
        self._total = 0

    def corrupt_cell(self, row: int, col: int, bit: int) -> int:
        """XOR one bit of a counter (fault injection); returns the new value.

        Flipping a high bit can inflate an estimate (false candidates —
        superset-safe) or, by two's-complement wraparound on a set bit,
        deflate it below the true sum — the silent-wrong-answer mode the
        degradation policy must guard against.
        """
        if not (0 <= row < self.depth and 0 <= col < self.width):
            raise ConfigurationError(
                f"cell ({row}, {col}) out of range for {self.depth}x{self.width}"
            )
        if not 0 <= bit < 63:
            raise ConfigurationError(f"bit must be in [0, 63), got {bit}")
        self._rows[row][col] ^= np.int64(1) << np.int64(bit)
        return int(self._rows[row][col])

    @property
    def total(self) -> int:
        """Sum of all amounts added across keys."""
        return self._total

    def occupancy(self) -> float:
        """Fraction of non-zero counters — collision pressure proxy."""
        return float(np.count_nonzero(self._rows)) / (self.depth * self.width)

    def observe_health(self, registry, **labels: object) -> None:
        """Publish counter occupancy and the total mass added."""
        registry.gauge(
            "countmin_occupancy", "Fraction of non-zero counters.", **labels
        ).set(self.occupancy())
        registry.gauge(
            "countmin_total", "Total amount added across keys.", **labels
        ).set(self._total)

    def sram_bits(self) -> int:
        """SRAM footprint, matching Table 2's ``(d*w) x 64b`` accounting."""
        return self.width * self.depth * 64
