"""Multiple switches in the data path (paper §9).

A "master switch" partitions the stream across leaf switches; each leaf
prunes its partition with its own resources, and the master switch prunes
the merged survivor stream further.  This multiplies the hardware at
Cheetah's disposal: a two-level tree with ``L`` leaves has ``L + 1``
pipelines of state.

Correctness is inherited: every Cheetah pruner is superset-safe, so
composing pruners in series (leaf then root) can only forward a superset
of what a single ideal pruner would, never lose an output entry —
provided each level's pruner is individually correct for the query.
"""

from __future__ import annotations

from typing import Generic, List, Sequence

import numpy as np

from ..core.base import Entry, PruneDecision, Pruner, PruneStats
from ..errors import ConfigurationError
from ..sketches.hashing import Hashable, hash_range, hash_range_batch

#: Seed of the stream partitioner (same-key entries land on one leaf).
#: Shared with :mod:`repro.parallel.shard`, so a leaf switch in a §9 tree
#: and a pruner shard in the process-parallel dataplane see identical
#: key-to-partition assignments.
PARTITION_SEED = 0x7EAF


def hash_partition(entry: Hashable, partitions: int) -> int:
    """The multiswitch stream partitioner: entry -> partition index.

    Hash partitioning keeps same-key entries together, which is what
    makes stateful leaf/shard pruners (DISTINCT, GROUP BY, HAVING, JOIN)
    individually correct for their slice of the stream.
    """
    return hash_range(entry, partitions, seed=PARTITION_SEED)


def hash_partition_batch(values, partitions: int) -> np.ndarray:
    """Vectorized :func:`hash_partition` over a value array.

    Element ``i`` equals ``hash_partition(values[i], partitions)`` —
    bit-for-bit, so scalar multiswitch routing and the batched shard
    planner agree on every entry's home.
    """
    return hash_range_batch(values, partitions, seed=PARTITION_SEED)


class SwitchTree(Generic[Entry]):
    """A two-level pruning hierarchy: leaf switches under a root switch.

    Parameters
    ----------
    leaves:
        One pruner per leaf switch (independent state).
    root:
        The master switch's pruner, applied to leaf survivors.

    Entries reach a leaf by hash, which keeps same-key entries on one
    leaf: required for DISTINCT/GROUP BY leaf pruners to be individually
    correct.
    """

    def __init__(
        self,
        leaves: Sequence[Pruner[Entry]],
        root: Pruner[Entry],
    ) -> None:
        if not leaves:
            raise ConfigurationError("a switch tree needs at least one leaf")
        self.leaves = list(leaves)
        self.root = root
        self.stats = PruneStats()
        self.leaf_pruned = 0
        self.root_pruned = 0

    def process(self, entry: Entry) -> PruneDecision:
        """Route through the partition's leaf, then the root."""
        leaf_index = hash_partition(entry, len(self.leaves))
        if self.leaves[leaf_index].process(entry) is PruneDecision.PRUNE:
            self.leaf_pruned += 1
            self.stats.record(PruneDecision.PRUNE)
            return PruneDecision.PRUNE
        decision = self.root.process(entry)
        if decision is PruneDecision.PRUNE:
            self.root_pruned += 1
        self.stats.record(decision)
        return decision

    def survivors(self, entries: Sequence[Entry]) -> List[Entry]:
        """Forwarded entries of a stream."""
        return [
            entry
            for entry in entries
            if self.process(entry) is PruneDecision.FORWARD
        ]

    def reset(self) -> None:
        """Clear all switches' state."""
        for leaf in self.leaves:
            leaf.reset()
        self.root.reset()
        self.stats = PruneStats()
        self.leaf_pruned = 0
        self.root_pruned = 0
