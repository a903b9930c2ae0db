"""HAVING pruning (paper §4.3, Example 5; Fig. 10f/11f).

``SELECT key ... GROUP BY key HAVING f(value) > c``:

* For ``f`` = MAX (or MIN), a single entry witnesses the condition: the
  switch forwards an entry iff its value passes the threshold, then a
  DISTINCT stage suppresses repeat keys.
* For ``f`` = SUM or COUNT no single entry suffices, so the switch keeps a
  Count-Min sketch of per-key running totals.  Count-Min's one-sided error
  (``estimate >= true``) means that by the time a key's true total crosses
  ``c`` its estimate certainly has — so forwarding entries whose estimate
  exceeds ``c`` never loses an output key.  A DISTINCT stage again
  suppresses repeat candidates.  The master receives a *superset* of the
  output keys and removes false positives with a partial second pass
  (exact totals for the candidate keys only).

``SUM/COUNT < c`` (the other direction) is future work in the paper and
raises :class:`UnsupportedOperationError` here.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError, UnsupportedOperationError
from ..sketches.cachematrix import CacheMatrix
from ..sketches.countmin import CountMinSketch
from ..sketches.hashing import Hashable, key_codes
from ..switch.compiler import footprint_having
from ..switch.resources import ResourceFootprint
from .base import Guarantee, PruneDecision, Pruner, as_keyed_batch

_SKETCH_AGGREGATES = ("sum", "count")
_SINGLE_AGGREGATES = ("max", "min")


class HavingPruner(Pruner[Tuple[Hashable, float]]):
    """Prune entries that cannot contribute a ``HAVING f(v) > c`` key.

    Parameters
    ----------
    threshold:
        The constant ``c``.
    aggregate:
        ``"sum"``, ``"count"`` (sketch path) or ``"max"``, ``"min"``
        (single-entry path).
    width, depth:
        Count-Min dimensions (paper default 1024 x 3).

    A 1024 x 2 DISTINCT stage suppresses repeat candidate keys.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        threshold: float,
        aggregate: str = "sum",
        width: int = 1024,
        depth: int = 3,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if aggregate not in _SKETCH_AGGREGATES + _SINGLE_AGGREGATES:
            raise ConfigurationError(
                f"aggregate must be one of "
                f"{_SKETCH_AGGREGATES + _SINGLE_AGGREGATES}, got {aggregate!r}"
            )
        if threshold < 0 and aggregate in _SKETCH_AGGREGATES:
            raise UnsupportedOperationError(
                "HAVING SUM/COUNT with negative thresholds needs the '< c' "
                "direction, which the paper defers to future work"
            )
        self.threshold = threshold
        self.aggregate = aggregate
        self.width = width
        self.depth = depth
        self._sketch: Optional[CountMinSketch] = None
        if aggregate in _SKETCH_AGGREGATES:
            self._sketch = CountMinSketch(width, depth, seed=seed)
        self._dedupe = CacheMatrix(1024, 2, seed=seed ^ 0xED)

    def process(self, entry: Tuple[Hashable, float]) -> PruneDecision:
        key, value = entry
        if self._sketch is not None:
            if value < 0:
                raise UnsupportedOperationError(
                    "negative SUM contributions break Count-Min one-sidedness"
                )
            # Switch counters are integers; rounding UP keeps the estimate
            # an upper bound on the true (possibly fractional) sum.
            amount = 1 if self.aggregate == "count" else math.ceil(value)
            estimate = self._sketch.add(key, amount)
            passes = estimate > self.threshold
        elif self.aggregate == "max":
            passes = value > self.threshold
        else:  # min
            passes = value < self.threshold
        if not passes:
            decision = PruneDecision.PRUNE
        elif self._dedupe.lookup_insert(key):
            # Candidate key already forwarded; suppress the duplicate.
            decision = PruneDecision.PRUNE
        else:
            decision = PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized HAVING over a keyed batch.

        SUM/COUNT run through the Count-Min batch add, which answers the
        threshold question per entry exactly as the scalar running
        estimates would (duplicate keys inside the batch included);
        MAX/MIN are one array compare.  The dedupe stage then replays only
        the passing entries, in stream order, matching the scalar control
        flow.  Negative SUM values raise up front rather than mid-stream.
        """
        keys, values, count = as_keyed_batch(entries)
        if count == 0:
            return np.ones(0, dtype=bool)
        values = np.asarray(values, dtype=np.float64)
        if self._sketch is not None:
            if np.any(values < 0):
                raise UnsupportedOperationError(
                    "negative SUM contributions break Count-Min one-sidedness"
                )
            if self.aggregate == "count":
                amounts = np.ones(count, dtype=np.int64)
            else:
                amounts = np.ceil(values).astype(np.int64)
            passes = self._sketch.add_batch(keys, amounts, self.threshold)
        elif self.aggregate == "max":
            passes = values > self.threshold
        else:  # min
            passes = values < self.threshold
        forward = passes.copy()
        pass_positions = np.flatnonzero(passes)
        if len(pass_positions):
            if isinstance(keys, np.ndarray):
                pass_keys = keys[pass_positions]
            else:
                pass_keys = [keys[i] for i in pass_positions]
            hits = self._dedupe.lookup_insert_batch(pass_keys)
            forward[pass_positions[hits]] = False
        self.stats.record_batch(count, count - int(forward.sum()))
        return forward

    def footprint(self) -> ResourceFootprint:
        from ..switch.compiler import footprint_distinct

        return footprint_having(width=self.width, depth=self.depth).merged_serial(
            footprint_distinct(cols=self._dedupe.cols, rows=self._dedupe.rows)
        )

    def _reset_state(self) -> None:
        if self._sketch is not None:
            self._sketch.clear()
        self._dedupe.clear()

    def _corrupt_state(self, rng) -> Optional[str]:
        """Flip a Count-Min counter bit (or garble the dedupe cache).

        A wrapped-around counter under-estimates a key's running sum, so
        its threshold crossing is missed — breaking the one-sidedness the
        HAVING completion relies on; detected corruption therefore forces
        a reboot and the passthrough degradation.
        """
        if self._sketch is not None:
            row = rng.randrange(self._sketch.depth)
            col = rng.randrange(self._sketch.width)
            bit = rng.randrange(16, 48)
            now = self._sketch.corrupt_cell(row, col, bit)
            return f"countmin[{row}][{col}] bit {bit} -> {now}"
        return self._dedupe.corrupt_cell(
            rng.randrange(self._dedupe.rows),
            rng.randrange(self._dedupe.cols),
            ("corrupt", rng.getrandbits(32)),
        )

    def observe_health(self) -> None:
        """Publish Count-Min occupancy and dedupe cache pressure."""
        name = type(self).__name__
        if self._sketch is not None:
            self._sketch.observe_health(self.metrics, pruner=name)
        self._dedupe.observe_health(self.metrics, pruner=name, role="dedupe")


def master_having(
    candidate_keys: Optional[Iterable[Hashable]],
    full_data,
    threshold: float,
    aggregate: str = "sum",
) -> List[Hashable]:
    """The master's completion, including the partial second pass.

    ``candidate_keys`` is the key set extracted from forwarded entries (a
    superset of the answer); ``full_data`` stands for the second pass that
    re-streams entries of the candidate keys so the master can compute the
    exact aggregate and drop false positives.  It is a sequence of
    ``(key, value)`` entries or — the engine's form — a ``(keys, values)``
    pair of aligned arrays, aggregated without boxing a row.
    ``candidate_keys=None`` says ``full_data`` is already the second pass:
    every entry belongs to a candidate.
    """
    if aggregate not in _SKETCH_AGGREGATES + _SINGLE_AGGREGATES:
        raise ConfigurationError(f"unknown aggregate {aggregate!r}")
    pair = isinstance(full_data, tuple) and len(full_data) == 2
    if pair and isinstance(full_data[0], np.ndarray):
        return second_pass(candidate_keys, *full_data, threshold, aggregate)[0]
    candidates = None if candidate_keys is None else set(candidate_keys)
    totals: Dict[Hashable, float] = {}
    for key, value in full_data:
        if candidates is not None and key not in candidates:
            continue
        if aggregate == "sum":
            totals[key] = totals.get(key, 0.0) + value
        elif aggregate == "count":
            totals[key] = totals.get(key, 0) + 1
        elif aggregate == "max":
            totals[key] = max(totals.get(key, float("-inf")), value)
        else:
            totals[key] = min(totals.get(key, float("inf")), value)
    if aggregate == "min":
        return [key for key, total in totals.items() if total < threshold]
    return [key for key, total in totals.items() if total > threshold]


def second_pass(
    candidate_keys, keys: np.ndarray, values: np.ndarray, threshold: float, aggregate: str
) -> Tuple[List[Hashable], int]:
    """:func:`master_having` over aligned ``keys``/``values`` arrays, and
    how many rows the partial second pass re-streams (the candidate keys'
    rows), both from one grouping of the key column."""
    unique, group = key_codes(keys)
    if candidate_keys is not None:
        # Each distinct key finds its slot in the small sorted candidate
        # set; rows of other keys land in a spare group past the candidates.
        distinct, unique = unique, np.unique(np.asarray(list(candidate_keys)))
        if not len(unique):
            return [], 0
        slot = np.searchsorted(unique, distinct)
        np.minimum(slot, len(unique) - 1, out=slot)
        slot[unique[slot] != distinct] = len(unique)
        group = slot[group]
    groups = len(unique) + 1
    if aggregate in _SKETCH_AGGREGATES:
        # bincount adds in stream order from 0.0, like master_having's loop.
        weights = values if aggregate == "sum" else None
        totals = np.bincount(group, weights=weights, minlength=groups)
    else:
        # fmax/fmin skip NaN values, like max()/min() against a total.
        best = np.fmax if aggregate == "max" else np.fmin
        totals = np.full(groups, -np.inf if aggregate == "max" else np.inf)
        best.at(totals, group, values)
    totals = totals[:-1]
    keep = totals < threshold if aggregate == "min" else totals > threshold
    refetched = len(keys) - int(np.count_nonzero(group == len(unique)))
    return unique[keep].tolist(), refetched


def reference_having(
    data: Sequence[Tuple[Hashable, float]], threshold: float, aggregate: str = "sum"
) -> List[Hashable]:
    """Ground truth: the HAVING output over the unpruned data."""
    return master_having(None, data, threshold, aggregate)
