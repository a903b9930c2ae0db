"""TOP N pruning (paper §4.3 Example 3 deterministic, §5 Example 7 randomized).

Deterministic (:class:`TopNDeterministicPruner`): the switch learns the
minimum ``t0`` of the first ``N`` entries, then maintains exponentially
spaced thresholds ``t_i = 2^i * t0`` with one counter each.  A threshold
*activates* once ``N`` entries at least as large have been processed;
entries below the largest active threshold are provably outside the top N
and are pruned.  Powers of two keep the thresholds computable with shifts.

Randomized (:class:`TopNRandomizedPruner`): each entry goes to one row of
a ``d x w`` rolling-minimum matrix, a hash of its position in the stream
(uniform and independent of its value, all Theorems 2-3 ask of the row);
an entry smaller than all ``w`` values stored in its row is pruned.
Theorem 2 sizes ``(d, w)`` so that with probability ``1 - delta`` no true
top-N entry lands in a row already holding ``w`` larger top-N entries —
i.e. none is pruned.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sketches.cachematrix import RollingMinMatrix
from ..sketches.hashing import hash_range_batch
from ..switch.compiler import footprint_topn_det, footprint_topn_rand
from ..switch.resources import ResourceFootprint
from .base import Guarantee, PruneDecision, Pruner
from .sizing import topn_cols


class TopNDeterministicPruner(Pruner[float]):
    """Threshold-counter TOP N with deterministic correctness.

    Parameters
    ----------
    n:
        Output size ``N``.
    thresholds:
        Number of thresholds ``w`` (Table 2 default 4).  The highest
        reachable pruning point is ``t0 * 2^(w-1)``.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(self, n: int, thresholds: int = 4) -> None:
        super().__init__()
        if n <= 0:
            raise ConfigurationError(f"N must be positive, got {n}")
        if thresholds < 1:
            raise ConfigurationError(f"need at least 1 threshold, got {thresholds}")
        self.n = n
        self.num_thresholds = thresholds
        self._warmup_seen = 0
        self._warmup_min: Optional[float] = None
        self._thresholds: List[float] = []
        self._counters: List[int] = []

    def _finish_warmup(self) -> None:
        """Fix ``t0`` and lay out the exponential ladder.

        ``t0`` is immediately active: the first N entries are all at least
        ``t0`` by construction, so anything smaller is provably outside
        the top N.  Higher thresholds activate once their counters reach N.
        """
        t0 = self._warmup_min
        assert t0 is not None
        self._thresholds = [t0]
        if t0 > 0:
            for i in range(1, self.num_thresholds):
                self._thresholds.append(t0 * (2**i))
        self._counters = [0] * len(self._thresholds)
        # Warmup entries cannot count toward t1..tw (the ladder did not
        # exist while they streamed), but they all count for t0.
        self._counters[0] = self.n

    def _active_threshold(self) -> Optional[float]:
        """Largest threshold whose counter reached N, if any."""
        active = None
        for t, count in zip(self._thresholds, self._counters):
            if count >= self.n:
                active = t
        return active

    def process(self, entry: float) -> PruneDecision:
        if self._warmup_seen < self.n:
            # First N entries always pass; track their minimum for t0.
            self._warmup_seen += 1
            if self._warmup_min is None or entry < self._warmup_min:
                self._warmup_min = entry
            if self._warmup_seen == self.n:
                self._finish_warmup()
            decision = PruneDecision.FORWARD
            self.stats.record(decision)
            return decision
        for i, t in enumerate(self._thresholds):
            if entry >= t:
                self._counters[i] += 1
        active = self._active_threshold()
        decision = (
            PruneDecision.PRUNE
            if active is not None and entry < active
            else PruneDecision.FORWARD
        )
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized threshold ladder over a value batch.

        Per-entry counter reads are reconstructed exactly with inclusive
        cumulative sums: entry ``k``'s counter for threshold ``t_i`` is the
        carried-in counter plus ``cumsum(values >= t_i)[k]`` — the value a
        sequential loop would see right after its own update.  Warmup
        entries (the first ``N`` of the query) replay through the scalar
        path since they mutate ``t0``.  An entry's cutoff is the largest
        threshold whose counter has reached ``N`` (``-inf`` before any has).
        """
        values = np.asarray(entries, dtype=np.float64)
        count = len(values)
        forward = np.ones(count, dtype=bool)
        if count == 0:
            return forward
        start = 0
        if self._warmup_seen < self.n:
            start = min(self.n - self._warmup_seen, count)
            for i in range(start):
                self.process(float(values[i]))
        rest = values[start:]
        if len(rest) == 0:
            return forward
        cutoffs = np.full(len(rest), -np.inf)
        for i, threshold in enumerate(self._thresholds):
            counts = self._counters[i] + np.cumsum(rest >= threshold)
            cutoffs = np.where(counts >= self.n, threshold, cutoffs)
            self._counters[i] = int(counts[-1])
        forward[start:] = ~(rest < cutoffs)
        self.stats.record_batch(
            len(rest), int(np.count_nonzero(~forward[start:]))
        )
        return forward

    def footprint(self) -> ResourceFootprint:
        return footprint_topn_det(thresholds=self.num_thresholds)

    def _reset_state(self) -> None:
        self._warmup_seen = 0
        self._warmup_min = None
        self._thresholds = []
        self._counters = []

    def _corrupt_state(self, rng) -> Optional[str]:
        """Garble a threshold counter (or the warmup minimum).

        Inflating a counter makes the pruner believe N entries already
        cleared a threshold, so it wrongly prunes genuine top-N values —
        the reason detected corruption forces a reboot.
        """
        if self._counters:
            index = rng.randrange(len(self._counters))
            bump = 1 << rng.randrange(4, 16)
            self._counters[index] += bump
            return f"threshold counter[{index}] += {bump}"
        if self._warmup_seen and self._warmup_min is not None:
            previous = self._warmup_min
            self._warmup_min = previous + float(1 << rng.randrange(4, 16))
            return f"warmup_min {previous!r} -> {self._warmup_min!r}"
        return None

    def observe_health(self) -> None:
        """Publish the warmup progress and active threshold count."""
        self.metrics.gauge(
            "topn_warmup_seen",
            "Entries consumed during warmup.",
            pruner=type(self).__name__,
        ).set(self._warmup_seen)
        self.metrics.gauge(
            "topn_thresholds",
            "Thresholds currently tracked.",
            pruner=type(self).__name__,
        ).set(len(self._thresholds))


#: Stream positions whose rows :meth:`TopNRandomizedPruner.process` hashes
#: at once: one scalar hash per entry costs four times a ``randrange``.
_ROW_BLOCK = 4096


class TopNRandomizedPruner(Pruner[float]):
    """Rolling-minimum matrix TOP N with probabilistic guarantee (§5).

    Parameters
    ----------
    n:
        Output size ``N``.
    rows:
        Matrix rows ``d``.  When ``cols`` is None, ``w`` is sized by
        Theorem 2 for the requested ``delta``.
    cols:
        Matrix columns ``w``; explicit values bypass Theorem 2 (used by
        resource-sweep benchmarks).
    delta:
        Target failure probability (paper's evaluation uses 1e-4).
    seed:
        Seed of the position hash that gives each entry its row.
    """

    guarantee = Guarantee.PROBABILISTIC

    def __init__(
        self,
        n: int,
        rows: int = 4096,
        cols: Optional[int] = None,
        delta: float = 1e-4,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if n <= 0:
            raise ConfigurationError(f"N must be positive, got {n}")
        self.n = n
        self.delta = delta
        if cols is None:
            cols = topn_cols(rows, n, delta)
        self._matrix = RollingMinMatrix(rows, cols)
        self._seed = seed ^ 0x7099
        self._position = 0
        self._block_start, self._block = 0, []

    @property
    def rows(self) -> int:
        """Matrix rows ``d``."""
        return self._matrix.rows

    @property
    def cols(self) -> int:
        """Matrix columns ``w``."""
        return self._matrix.cols

    def _rows(self, start: int, count: int) -> np.ndarray:
        """Rows of stream positions ``[start, start + count)``."""
        positions = np.arange(start, start + count, dtype=np.uint64)
        return hash_range_batch(positions, self._matrix.rows, self._seed).view(np.int64)

    def _row(self) -> int:
        """The next entry's row, read from an aligned block of
        ``_ROW_BLOCK`` positions hashed in one vector call."""
        offset = self._position - self._block_start
        if not 0 <= offset < len(self._block):
            offset = self._position % _ROW_BLOCK
            self._block_start = self._position - offset
            self._block = self._rows(self._block_start, _ROW_BLOCK).tolist()
        return self._block[offset]

    def process(self, entry: float) -> PruneDecision:
        pruned = self._matrix.offer(entry, self._row())
        self._position += 1
        decision = PruneDecision.PRUNE if pruned else PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Batch drive of the rolling-minimum matrix.

        The batch's rows are those of its stream positions, the ones the
        scalar path reads, so decisions and matrix state match the scalar
        loop bit for bit; the matrix's batch driver does the rest.
        """
        values = np.asarray(entries, dtype=np.float64)
        count = len(values)
        if count == 0:
            return np.ones(0, dtype=bool)
        rows = self._rows(self._position, count)
        self._position += count
        pruned = self._matrix.offer_batch(values, rows)
        self.stats.record_batch(count, int(pruned.sum()))
        return ~pruned

    def footprint(self) -> ResourceFootprint:
        return footprint_topn_rand(cols=self.cols, rows=self.rows)

    def _reset_state(self) -> None:
        self._matrix.clear()

    def _reset_host_state(self) -> None:
        """Restart the stream at position 0."""
        self._position = 0

    def _corrupt_state(self, rng) -> Optional[str]:
        """Plant a huge phantom minimum in a random matrix cell."""
        return self._matrix.corrupt_cell(
            rng.randrange(self._matrix.rows),
            rng.randrange(self._matrix.cols),
            float(1 << 60),
        )

    def observe_health(self) -> None:
        """Publish rolling-minimum matrix occupancy and offer pressure."""
        self._matrix.observe_health(self.metrics, pruner=type(self).__name__)


def master_topn(survivors: Sequence[float], n: int) -> List[float]:
    """The master's completion: exact top-N (descending) via an N-heap.

    This is the software algorithm the paper notes "processes millions of
    entries per second" — cheap, which is why TOP N tolerates lower
    pruning rates than SKYLINE.  A float array is selected unboxed
    (``np.partition``, then a stable sort: the heap's order and ties); one
    holding a NaN, which the heap orders by position, takes the heap.
    """
    if not isinstance(survivors, np.ndarray):
        return heapq.nlargest(n, survivors)
    if n <= 0 or np.isnan(survivors).any():
        return heapq.nlargest(n, survivors.tolist())
    if n < len(survivors):
        nth = np.partition(survivors, len(survivors) - n)[len(survivors) - n]
        keep = survivors > nth
        ties = np.flatnonzero(survivors == nth)[: n - np.count_nonzero(keep)]
        keep[ties] = True
        survivors = survivors[keep]
    return survivors[np.argsort(-survivors, kind="stable")].tolist()
