"""JOIN pruning via two-pass Bloom filters (paper §4.3, Example 4).

Pass 1: the workers stream only the join column of both tables through the
switch, which inserts each key into a per-table Bloom filter (``F_A``,
``F_B``).  Pass 2: the tables stream again and the switch prunes an entry
of ``A`` whose key misses in ``F_B`` (and vice versa).  Bloom filters have
no false negatives, so no matching entry is ever pruned — deterministic
correctness; false positives only lower the pruning rate.

When table sizes are very different, :class:`AsymmetricJoinPruner` streams
the small table unpruned (building a low-FP filter for it, since all the
memory serves one table) and prunes only the large table — the paper's
small-table optimization.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..sketches.bloom import BloomFilter, RegisterBloomFilter
from ..sketches.hashing import Hashable
from ..switch.compiler import footprint_join
from ..switch.resources import ResourceFootprint
from .base import Guarantee, PruneDecision, Pruner

#: A join-stream entry: which table it came from and its join key.
SideKey = Tuple[str, Hashable]

_FILTERS = {"bf": BloomFilter, "rbf": RegisterBloomFilter}


#: Hash functions per JOIN filter (the paper's ``H = 3``).
HASHES = 3


def _make_filter(variant: str, size_bits: int, hashes: int, seed: int):
    if variant not in _FILTERS:
        raise ConfigurationError(
            f"join filter variant must be one of {sorted(_FILTERS)}, got {variant!r}"
        )
    return _FILTERS[variant](size_bits, hashes=hashes, seed=seed)


class JoinPruner(Pruner[SideKey]):
    """Symmetric two-pass JOIN pruner.

    Entries are ``(side, key)`` with ``side`` one of the two table names.
    Call :meth:`build` (or feed pass-1 traffic through :meth:`observe_build`)
    before processing pass-2 traffic; processing before both filters exist
    is a configuration error because pruning would be unsound.

    Parameters
    ----------
    left, right:
        Table names for the two sides.
    memory_bits:
        Total filter memory ``M`` (split evenly between the two filters),
        matching the paper's sweep of 1-16 MB; each filter uses
        ``HASHES`` hash functions.
    variant:
        ``"bf"`` (standard) or ``"rbf"`` (register Bloom filter).
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        left: str,
        right: str,
        memory_bits: int = 4 * 1024 * 1024 * 8,
        variant: str = "bf",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if left == right:
            raise ConfigurationError("join sides must have distinct names")
        self.left = left
        self.right = right
        self.memory_bits = memory_bits
        self.variant = variant
        half = max(64, memory_bits // 2)
        self._filters = {
            left: _make_filter(variant, half, HASHES, seed),
            right: _make_filter(variant, half, HASHES, seed ^ 0x10B),
        }
        self._built = False

    def _filter_of(self, side: str):
        try:
            return self._filters[side]
        except KeyError:
            raise ConfigurationError(
                f"unknown join side {side!r}; expected {self.left!r} or {self.right!r}"
            ) from None

    def observe_build(self, side: str, key: Hashable) -> None:
        """Pass-1 traffic: record ``key`` in ``side``'s filter."""
        self._filter_of(side).add(key)

    def build(self, left_keys: Iterable[Hashable], right_keys: Iterable[Hashable]) -> None:
        """Run the whole first pass from two key iterables.

        Materialized sequences and arrays go through the filters' batch
        insert (same final filter state; bit OR is order-independent).
        """
        for side, keys in ((self.left, left_keys), (self.right, right_keys)):
            if isinstance(keys, (list, tuple, np.ndarray)):
                self._filters[side].add_batch(keys)
            else:
                for key in keys:
                    self.observe_build(side, key)
        self.seal()

    def seal(self) -> None:
        """Mark the first pass finished; pass-2 pruning becomes legal."""
        self._built = True

    def process(self, entry: SideKey) -> PruneDecision:
        if not self._built:
            raise ConfigurationError(
                "JoinPruner.process called before the build pass; call build()/seal()"
            )
        side, key = entry
        other = self.right if side == self.left else self.left
        if side not in self._filters:
            self._filter_of(side)  # raises with a helpful message
        match = key in self._filters[other]
        decision = PruneDecision.FORWARD if match else PruneDecision.PRUNE
        self.stats.record(decision)
        return decision

    def probe_batch(self, side: str, keys: Sequence[Hashable]) -> np.ndarray:
        """Vectorized pass-2 probe: match flags for ``side`` keys against
        the *other* side's filter (stats are not touched; used by
        :meth:`process_batch` and the cluster's batch join stage)."""
        if not self._built:
            raise ConfigurationError(
                "JoinPruner.process called before the build pass; call build()/seal()"
            )
        if side not in self._filters:
            self._filter_of(side)  # raises with a helpful message
        other = self.right if side == self.left else self.left
        return self._filters[other].contains_batch(keys)

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized JOIN probe over a batch.

        Accepts the columnar form ``(side, keys_array)`` for a
        single-side batch, or any sequence of ``(side, key)`` pairs
        (grouped by side internally; each side probes as one Bloom batch).
        """
        if (
            isinstance(entries, tuple)
            and len(entries) == 2
            and isinstance(entries[0], str)
        ):
            side, keys = entries
            match = self.probe_batch(side, keys)
        else:
            count = len(entries)
            if count == 0:
                if not self._built:
                    raise ConfigurationError(
                        "JoinPruner.process called before the build pass; "
                        "call build()/seal()"
                    )
                return np.ones(0, dtype=bool)
            sides = [entry[0] for entry in entries]
            match = np.zeros(count, dtype=bool)
            for side in dict.fromkeys(sides):
                positions = [i for i, s in enumerate(sides) if s == side]
                match[positions] = self.probe_batch(
                    side, [entries[i][1] for i in positions]
                )
        total = len(match)
        self.stats.record_batch(total, total - int(match.sum()))
        return match

    def footprint(self) -> ResourceFootprint:
        return footprint_join(
            memory_bits=self.memory_bits, hashes=HASHES, variant=self.variant
        )

    def _reset_state(self) -> None:
        for f in self._filters.values():
            f.clear()
        self._built = False

    def _corrupt_state(self, rng) -> Optional[str]:
        """Flip one bit of a random side's Bloom filter.

        Clearing a set bit induces false negatives — matching keys would
        be pruned — which is why the cluster escalates detected
        corruption on a JOIN to a reboot plus rebuild-or-passthrough.
        """
        side = rng.choice(sorted(self._filters))
        bloom = self._filters[side]
        index = rng.randrange(bloom.size_bits)
        now = bloom.flip_bit(index)
        return f"bloom[{side}] bit {index} -> {int(now)}"

    def observe_health(self) -> None:
        """Publish both build filters' fill ratios and FP estimates."""
        for side, bloom in self._filters.items():
            bloom.observe_health(
                self.metrics, pruner=type(self).__name__, side=side
            )


class AsymmetricJoinPruner(Pruner[Hashable]):
    """Small-table JOIN optimization (§4.3).

    The small table streams through unpruned while all the filter memory
    records its keys at a low false-positive rate; then the large table is
    pruned against that filter.  ``process`` handles large-table keys only.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        memory_bits: int = 4 * 1024 * 1024 * 8,
        hashes: int = 3,
        variant: str = "bf",
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.memory_bits = memory_bits
        self.hashes = hashes
        self.variant = variant
        self._filter = _make_filter(variant, max(64, memory_bits), hashes, seed)
        self._built = False

    def build_from_small_table(self, keys: Iterable[Hashable]) -> int:
        """Stream the small table (unpruned) and index its keys; returns count."""
        if isinstance(keys, (list, tuple, np.ndarray)):
            count = len(keys)
            self._filter.add_batch(keys)
        else:
            count = 0
            for key in keys:
                self._filter.add(key)
                count += 1
        self._built = True
        return count

    def process(self, entry: Hashable) -> PruneDecision:
        if not self._built:
            raise ConfigurationError(
                "AsymmetricJoinPruner.process before build_from_small_table"
            )
        decision = (
            PruneDecision.FORWARD if entry in self._filter else PruneDecision.PRUNE
        )
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized large-table probe: one Bloom batch `contains`."""
        if not self._built:
            raise ConfigurationError(
                "AsymmetricJoinPruner.process before build_from_small_table"
            )
        match = self._filter.contains_batch(entries)
        self.stats.record_batch(len(match), len(match) - int(match.sum()))
        return match

    def footprint(self) -> ResourceFootprint:
        return footprint_join(
            memory_bits=self.memory_bits, hashes=self.hashes, variant=self.variant
        )

    def _reset_state(self) -> None:
        self._filter.clear()
        self._built = False

    def _corrupt_state(self, rng) -> Optional[str]:
        """Flip one bit of the small-table filter."""
        index = rng.randrange(self._filter.size_bits)
        now = self._filter.flip_bit(index)
        return f"bloom[small] bit {index} -> {int(now)}"

    def observe_health(self) -> None:
        """Publish the small-table filter's fill ratio and FP estimate."""
        self._filter.observe_health(self.metrics, pruner=type(self).__name__)


def master_join(
    left_rows: Sequence[Tuple[Hashable, object]],
    right_rows: Sequence[Tuple[Hashable, object]],
) -> List[Tuple[Hashable, object, object]]:
    """The master's completion: exact inner hash join over survivors.

    ``left_rows`` / ``right_rows`` are ``(key, payload)`` pairs; the result
    lists ``(key, left_payload, right_payload)`` for every key match.
    """
    index: Dict[Hashable, List[object]] = {}
    for key, payload in left_rows:
        index.setdefault(key, []).append(payload)
    output: List[Tuple[Hashable, object, object]] = []
    for key, payload in right_rows:
        for left_payload in index.get(key, ()):
            output.append((key, left_payload, payload))
    return output


class OuterJoinPruner(Pruner[SideKey]):
    """LEFT/RIGHT OUTER join pruning (the paper's footnote 3 modification).

    In a LEFT OUTER join every left-table row appears in the output, so
    the switch must never prune the preserved side; only the other side's
    non-matching entries are prunable.  The build pass is unchanged: both
    sides' keys go into Bloom filters, but only the non-preserved side's
    filter is consulted at probe time.
    """

    guarantee = Guarantee.DETERMINISTIC

    def __init__(
        self,
        left: str,
        right: str,
        preserved: str = "left",
        memory_bits: int = 4 * 1024 * 1024 * 8,
        variant: str = "bf",
        seed: int = 0,
    ) -> None:
        super().__init__()
        if preserved not in ("left", "right"):
            raise ConfigurationError(
                f"preserved side must be 'left' or 'right', got {preserved!r}"
            )
        self.preserved_table = left if preserved == "left" else right
        # The preserved side only needs ITS filter built (to prune the
        # other side); give it all the memory.
        self._inner = JoinPruner(
            left=left,
            right=right,
            memory_bits=memory_bits,
            variant=variant,
            seed=seed,
        )

    def build(self, left_keys: Iterable[Hashable], right_keys: Iterable[Hashable]) -> None:
        """Pass 1: index both key columns."""
        self._inner.build(left_keys, right_keys)

    def seal(self) -> None:
        """Mark the build pass finished."""
        self._inner.seal()

    def process(self, entry: SideKey) -> PruneDecision:
        side, _ = entry
        if side == self.preserved_table:
            # Preserved-side rows always reach the master.
            decision = PruneDecision.FORWARD
            self.stats.record(decision)
            # Keep the inner pruner's sequence consistent without pruning.
            return decision
        decision = self._inner.process(entry)
        self.stats.record(decision)
        return decision

    def process_batch(self, entries) -> np.ndarray:
        """Vectorized OUTER probe: preserved-side entries always forward;
        the rest go through the inner pruner's batch probe.

        Stats mirror the scalar loop: preserved entries count only here,
        probed entries count in both this pruner and the inner one.
        """
        if (
            isinstance(entries, tuple)
            and len(entries) == 2
            and isinstance(entries[0], str)
        ):
            side, keys = entries
            count = len(keys)
            if side == self.preserved_table:
                self.stats.record_batch(count, 0)
                return np.ones(count, dtype=bool)
            forward = self._inner.process_batch(entries)
            self.stats.record_batch(count, count - int(forward.sum()))
            return forward
        count = len(entries)
        forward = np.ones(count, dtype=bool)
        if count == 0:
            return forward
        probed = [
            i for i, entry in enumerate(entries) if entry[0] != self.preserved_table
        ]
        if probed:
            forward[probed] = self._inner.process_batch(
                [entries[i] for i in probed]
            )
        self.stats.record_batch(count, count - int(forward.sum()))
        return forward

    def footprint(self) -> ResourceFootprint:
        return self._inner.footprint()

    def _reset_state(self) -> None:
        self._inner.reset()

    def _corrupt_state(self, rng) -> Optional[str]:
        """Delegate the bit-flip to the wrapped symmetric pruner."""
        return self._inner._corrupt_state(rng)

    def observe_health(self) -> None:
        """Publish the wrapped join pruner's filter health (idempotent)."""
        for side, bloom in self._inner._filters.items():
            bloom.observe_health(
                self.metrics, pruner=type(self).__name__, side=side
            )
