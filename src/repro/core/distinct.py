"""DISTINCT pruning (paper §4.2, Example 2; probabilistic variant §5 Ex. 8).

The switch keeps a ``d x w`` cache matrix.  A value hashes to a row; if it
is cached there the packet is a guaranteed duplicate and is pruned; if not
it is installed (rolling LRU/FIFO replacement) and forwarded.  The cache
can only *miss* values that were evicted — false negatives — which the
master removes, so exact-key DISTINCT is deterministically correct.

Wide or multi-column keys are fingerprinted (probabilistic variant): a
fingerprint collision *within a row* can wrongly prune a first occurrence,
so :class:`FingerprintDistinctPruner` sizes fingerprints with Theorem 4 to
keep the failure probability below ``delta``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sketches.cachematrix import CacheMatrix
from ..sketches.fingerprint import FingerprintScheme, scheme_for
from ..sketches.hashing import Hashable
from ..switch.compiler import footprint_distinct
from ..switch.resources import ResourceFootprint, ResourceModel, TOFINO
from .base import Guarantee, PruneDecision, Pruner


class DistinctPruner(Pruner[Hashable]):
    """Exact-key DISTINCT pruner over a ``d x w`` cache matrix.

    Parameters
    ----------
    rows, cols:
        Matrix dimensions ``d`` and ``w`` (paper defaults 4096 x 2).
    policy:
        ``"lru"`` (rolling replacement with refresh-on-hit) or ``"fifo"``
        (cheaper on stages; Table 2's starred row).
    seed:
        Row-hash seed.
    model:
        Resource model used for the footprint's stage folding.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        rows: int = 4096,
        cols: int = 2,
        policy: str = "lru",
        seed: int = 0,
        model: ResourceModel = TOFINO,
    ) -> None:
        super().__init__()
        self._matrix = CacheMatrix(rows, cols, policy=policy, seed=seed)
        self._model = model

    @property
    def rows(self) -> int:
        """Matrix rows ``d``."""
        return self._matrix.rows

    @property
    def cols(self) -> int:
        """Matrix columns ``w``."""
        return self._matrix.cols

    @property
    def policy(self) -> str:
        """Replacement policy."""
        return self._matrix.policy

    def process(self, entry: Hashable) -> PruneDecision:
        hit = self._matrix.lookup_insert(entry)
        decision = PruneDecision.PRUNE if hit else PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Batch DISTINCT: vectorized row hashing, per-row sequential replay.

        Accepts any value sequence or 1-D array; decisions and cache state
        equal the scalar loop (the matrix driver replays each row group in
        stream order).
        """
        hits = self._matrix.lookup_insert_batch(entries)
        self.stats.record_batch(len(hits), int(hits.sum()))
        return ~hits

    def footprint(self) -> ResourceFootprint:
        return footprint_distinct(
            cols=self.cols, rows=self.rows, policy=self.policy, model=self._model
        )

    def _reset_state(self) -> None:
        self._matrix.clear()

    def _corrupt_state(self, rng) -> Optional[str]:
        """Plant a phantom value in a random cache cell (fault injection)."""
        return self._matrix.corrupt_cell(
            rng.randrange(self._matrix.rows),
            rng.randrange(self._matrix.cols),
            ("corrupt", rng.getrandbits(32)),
        )

    def observe_health(self) -> None:
        """Publish cache-matrix occupancy and hit/eviction pressure."""
        self._matrix.observe_health(self.metrics, pruner=type(self).__name__)


class FingerprintDistinctPruner(Pruner[Sequence[Hashable]]):
    """DISTINCT over wide / multi-column keys via fingerprints (§5, Ex. 8).

    The CWorker fingerprints the queried columns; the switch runs the same
    cache-matrix algorithm on the fingerprint.  With Theorem-4 sizing the
    output is exact with probability at least ``1 - delta``.

    Parameters
    ----------
    expected_distinct:
        Upper estimate of the number of distinct keys ``D`` (used by
        Theorem 4 to size the fingerprint).
    delta:
        Allowed failure probability.
    fingerprint_bits:
        Explicit width override; when None, sized by Theorem 4.
    """

    guarantee = Guarantee.PROBABILISTIC

    def __init__(
        self,
        rows: int = 4096,
        cols: int = 2,
        expected_distinct: int = 1_000_000,
        delta: float = 1e-4,
        fingerprint_bits: Optional[int] = None,
        policy: str = "lru",
        seed: int = 0,
        model: ResourceModel = TOFINO,
    ) -> None:
        super().__init__()
        if expected_distinct <= 0:
            raise ConfigurationError(
                f"expected_distinct must be positive, got {expected_distinct}"
            )
        self.delta = delta
        self.expected_distinct = expected_distinct
        if fingerprint_bits is None:
            self.scheme = scheme_for(expected_distinct, rows, delta, seed=seed)
        else:
            self.scheme = FingerprintScheme(bits=fingerprint_bits, seed=seed)
        self._matrix = CacheMatrix(rows, cols, policy=policy, seed=seed ^ 0xF1)
        self._model = model

    @property
    def rows(self) -> int:
        """Matrix rows ``d``."""
        return self._matrix.rows

    @property
    def cols(self) -> int:
        """Matrix columns ``w``."""
        return self._matrix.cols

    def fingerprint_of(self, entry: Hashable) -> int:
        """The CWorker-side fingerprint for ``entry``."""
        if isinstance(entry, tuple):
            return self.scheme.of_columns(entry)
        return self.scheme.of(entry)

    def process(self, entry: Hashable) -> PruneDecision:
        fp = self.fingerprint_of(entry)
        hit = self._matrix.lookup_insert(fp)
        decision = PruneDecision.PRUNE if hit else PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Batch fingerprint DISTINCT: vectorized fingerprints, then the
        same row-grouped cache replay as the exact pruner.

        ``canonical_int`` folds tuples exactly like :meth:`of_columns`,
        so multi-column keys fingerprint identically on both paths.
        """
        count = len(entries)
        if count == 0:
            return np.ones(0, dtype=bool)
        fps = self.scheme.of_batch(entries)
        hits = self._matrix.lookup_insert_batch(fps)
        self.stats.record_batch(count, int(hits.sum()))
        return ~hits

    def footprint(self) -> ResourceFootprint:
        return footprint_distinct(
            cols=self.cols,
            rows=self.rows,
            policy=self._matrix.policy,
            model=self._model,
            value_bits=self.scheme.bits,
        )

    def _reset_state(self) -> None:
        self._matrix.clear()

    def _corrupt_state(self, rng) -> Optional[str]:
        """Plant a phantom fingerprint in a random cache cell."""
        return self._matrix.corrupt_cell(
            rng.randrange(self._matrix.rows),
            rng.randrange(self._matrix.cols),
            rng.getrandbits(32),
        )

    def observe_health(self) -> None:
        """Publish cache-matrix occupancy and hit/eviction pressure."""
        self._matrix.observe_health(self.metrics, pruner=type(self).__name__)


def master_distinct(survivors: Sequence[Hashable]) -> list:
    """The master's completion step: exact DISTINCT over the survivors.

    Identical to what the master runs without the switch — the pruning
    contract says the result matches DISTINCT over the original stream.
    """
    seen = set()
    output = []
    for value in survivors:
        if value not in seen:
            seen.add(value)
            output.append(value)
    return output
