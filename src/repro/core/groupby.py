"""GROUP BY pruning with MIN/MAX aggregates (paper §4, Table 4, Fig. 10d).

For ``SELECT key, MAX(value) ... GROUP BY key`` the switch caches
``(key, running-aggregate)`` pairs in a ``d x w`` matrix (one hash per
row).  An entry whose key is cached with an aggregate at least as good is
provably redundant — the cached aggregate always corresponds to an entry
that was already forwarded — and is pruned.  New keys, improved values,
and evicted keys are forwarded, so the master's recomputation over the
survivors is exact: deterministic guarantee.

SUM/COUNT aggregates cannot be pruned this way (a single entry never
witnesses the total); those go through the HAVING machinery's sketch path
or stay on the master.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sketches.cachematrix import KeyedAggregateMatrix
from ..sketches.hashing import Hashable
from ..switch.compiler import footprint_groupby
from ..switch.resources import ResourceFootprint
from .base import Guarantee, PruneDecision, Pruner, as_keyed_batch

_AGGREGATES: Dict[str, Callable[[float, float], bool]] = {
    # better(new, cached) -> does `new` improve the aggregate?
    "max": operator.gt,
    "min": operator.lt,
}


class GroupByPruner(Pruner[Tuple[Hashable, float]]):
    """Prune ``(key, value)`` entries that cannot change a MIN/MAX group.

    Parameters
    ----------
    aggregate:
        ``"max"`` or ``"min"``.
    rows, cols:
        Matrix dimensions; the paper's default sweep uses ``w`` up to 9
        stages (Fig. 10d) with per-stage register arrays of ``d`` indexes.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        aggregate: str = "max",
        rows: int = 4096,
        cols: int = 8,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if aggregate not in _AGGREGATES:
            raise ConfigurationError(
                f"aggregate must be one of {sorted(_AGGREGATES)}, got {aggregate!r}"
            )
        self.aggregate = aggregate
        self._matrix = KeyedAggregateMatrix(
            rows, cols, better=_AGGREGATES[aggregate], seed=seed
        )

    @property
    def rows(self) -> int:
        """Matrix rows ``d``."""
        return self._matrix.rows

    @property
    def cols(self) -> int:
        """Matrix columns ``w``."""
        return self._matrix.cols

    def process(self, entry: Tuple[Hashable, float]) -> PruneDecision:
        key, value = entry
        prunable = self._matrix.observe(key, value)
        decision = PruneDecision.PRUNE if prunable else PruneDecision.FORWARD
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Batch GROUP BY pruning via the keyed matrix's row-grouped driver.

        Accepts ``(key, value)`` pairs or the columnar ``(keys, values)``
        array pair; row hashing is vectorized and each row's entries
        replay sequentially, so decisions and cached aggregates match the
        scalar loop.
        """
        keys, values, count = as_keyed_batch(entries)
        if count == 0:
            return np.ones(0, dtype=bool)
        prunable = self._matrix.observe_batch(keys, values)
        self.stats.record_batch(count, int(prunable.sum()))
        return ~prunable

    def footprint(self) -> ResourceFootprint:
        return footprint_groupby(cols=self.cols, rows=self.rows)

    def _reset_state(self) -> None:
        self._matrix.clear()

    def _corrupt_state(self, rng) -> Optional[str]:
        """Plant a phantom ``(key, aggregate)`` pair in a random cell."""
        return self._matrix.corrupt_cell(
            rng.randrange(self._matrix.rows),
            rng.randrange(self._matrix.cols),
            f"corrupt-{rng.getrandbits(32):08x}",
            float(1 << 48),
        )

    def observe_health(self) -> None:
        """Publish keyed-aggregate matrix occupancy and hit pressure."""
        self._matrix.observe_health(self.metrics, pruner=type(self).__name__)


def master_groupby(
    survivors: Sequence[Tuple[Hashable, float]], aggregate: str = "max"
) -> Dict[Hashable, float]:
    """The master's completion: exact MIN/MAX GROUP BY over survivors."""
    if aggregate not in _AGGREGATES:
        raise ConfigurationError(
            f"aggregate must be one of {sorted(_AGGREGATES)}, got {aggregate!r}"
        )
    better = _AGGREGATES[aggregate]
    result: Dict[Hashable, float] = {}
    for key, value in survivors:
        if key not in result or better(value, result[key]):
            result[key] = value
    return result
