"""Bloom filters as used by Cheetah's JOIN pruner (paper §4.3, Fig. 10e).

Two variants are provided:

* :class:`BloomFilter` — the textbook structure: ``m`` bits, ``h``
  independent hash functions.  Matches the paper's "BF" line.
* :class:`RegisterBloomFilter` — the paper's "RBF" variant built for
  switches where a stage exposes word-wide registers: one hash selects a
  64-bit register and the element sets ``h`` bit positions *inside* that
  word (positions derived from a second hash).  It needs a single stage
  and one ALU, at the cost of slightly more false positives.

Both guarantee **no false negatives**, the property JOIN pruning relies
on for correctness: a pruned entry provably has no match in the other
table.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from ..errors import ConfigurationError
from .hashing import (
    Hashable,
    canonical_batch,
    hash64,
    hash64_batch,
    hash_family,
    hash_range,
    hash_range_batch,
)

_WORD_BITS = 64

#: ``add_batch``/``contains_batch`` hash this many values at a time: a whole
#: column at once makes its canonical/index temporaries a query's memory peak.
_SLICE = 1 << 15


def _offsets(values: np.ndarray, lo) -> np.ndarray:
    """``values - lo`` as ``intp``: wrapping makes it exact for every int width."""
    return np.subtract(values, lo, dtype=np.intp, casting="unsafe")


def _dense(values: Sequence[Hashable]):
    """``(lo, seen)`` for an int array spanning at most as many values as
    it holds — its minimum and which offsets from it occur — else None.
    Such an array hashes each distinct value once (the 200k-row Big Data
    join key column holds each ~9 times).  Unlike :func:`key_codes` it
    keeps no full-length inverse: ``seen`` fills slice by slice."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "iu" and len(values)):
        return None
    lo, hi = values.min(), values.max()
    if int(hi) - int(lo) > len(values):
        return None
    seen = np.zeros(int(hi) - int(lo) + 1, dtype=bool)
    for start in range(0, len(values), _SLICE):
        seen[_offsets(values[start : start + _SLICE], lo)] = True
    return lo, seen


class BloomFilter:
    """Standard Bloom filter over ``size_bits`` bits with ``hashes`` probes.

    Parameters
    ----------
    size_bits:
        Total number of filter bits (``m``).  The paper sweeps 1-16 MB;
        pass e.g. ``4 * 2**20 * 8`` for 4 MB.
    hashes:
        Number of hash functions (``H``); the paper defaults to 3.
    seed:
        Base seed for the hash family, for reproducible layouts.
    """

    def __init__(self, size_bits: int, hashes: int = 3, seed: int = 0) -> None:
        if size_bits <= 0:
            raise ConfigurationError(f"filter size must be positive, got {size_bits}")
        if hashes <= 0:
            raise ConfigurationError(f"need at least one hash, got {hashes}")
        self.size_bits = size_bits
        self.hashes = hashes
        self._hash_fns = hash_family(hashes, size_bits, base_seed=seed)
        # The same per-unit seeds hash_family derives, for the batch path.
        self._seeds = [seed * 0x1000 + i + 1 for i in range(hashes)]
        self._words = bytearray((size_bits + 7) // 8)
        self._inserted = 0

    def add(self, value: Hashable) -> None:
        """Insert ``value`` into the filter."""
        for fn in self._hash_fns:
            index = fn(value)
            self._words[index >> 3] |= 1 << (index & 7)
        self._inserted += 1

    def __contains__(self, value: Hashable) -> bool:
        return all(
            self._words[fn(value) >> 3] & (1 << (fn(value) & 7)) for fn in self._hash_fns
        )

    def add_batch(self, values: Sequence[Hashable]) -> None:
        """Vectorized :meth:`add` for a whole value array.

        Sets exactly the bits the equivalent scalar loop would set (bit OR
        is commutative and idempotent, so neither insertion order nor
        repeats matter: a dense int array inserts each distinct value once).
        """
        count = len(values)
        dense = _dense(values)
        if dense is not None:
            lo, seen = dense
            values = lo + np.flatnonzero(seen).astype(values.dtype)
        words = np.frombuffer(self._words, dtype=np.uint8)
        for lo in range(0, len(values), _SLICE):
            canon = canonical_batch(values[lo : lo + _SLICE])
            for seed in self._seeds:
                index = hash_range_batch(None, self.size_bits, seed, canonical=canon)
                byte = (index >> np.uint64(3)).astype(np.int64)
                bit = np.uint8(1) << (index & np.uint64(7)).astype(np.uint8)
                # A fancy-index OR keeps one write per byte: redo lost bits.
                while len(byte):
                    words[byte] |= bit
                    lost = words[byte] & bit == 0
                    byte, bit = byte[lost], bit[lost]
        self._inserted += count

    def contains_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Vectorized membership probe: ``result[i] == (values[i] in self)``.

        A dense int array probes each distinct value once and looks the
        answers up by offset."""
        dense = _dense(values)
        if dense is None:
            return self._probe(values)
        lo, seen = dense
        answer = np.zeros(len(seen), dtype=bool)
        answer[seen] = self._probe(lo + np.flatnonzero(seen).astype(values.dtype))
        result = np.empty(len(values), dtype=bool)
        for start in range(0, len(values), _SLICE):
            result[start : start + _SLICE] = answer[_offsets(values[start : start + _SLICE], lo)]
        return result

    def _probe(self, values: Sequence[Hashable]) -> np.ndarray:
        """Membership of each of ``values``, hashing every one."""
        count = len(values)
        result = np.ones(count, dtype=bool)
        words = np.frombuffer(self._words, dtype=np.uint8)
        for lo in range(0, count, _SLICE):
            canon = canonical_batch(values[lo : lo + _SLICE])
            hit = result[lo : lo + _SLICE]
            for seed in self._seeds:
                index = hash_range_batch(None, self.size_bits, seed, canonical=canon)
                byte = words[(index >> np.uint64(3)).astype(np.int64)]
                bit = (byte >> (index & np.uint64(7)).astype(np.uint8)) & np.uint8(1)
                hit &= bit.astype(bool)
        return result

    def update(self, values: Iterable[Hashable]) -> None:
        """Insert every value of an iterable."""
        for value in values:
            self.add(value)

    def clear(self) -> None:
        """Reset the filter to empty (switch reboot / new query)."""
        np.frombuffer(self._words, dtype=np.uint8).fill(0)
        self._inserted = 0

    def flip_bit(self, index: int) -> bool:
        """Invert one filter bit (fault injection); returns its new value.

        Setting a clear bit only adds a false positive (superset-safe);
        clearing a *set* bit can create a false negative — the failure
        mode that makes JOIN reboot-unsafe in Table 4.
        """
        if not 0 <= index < self.size_bits:
            raise ConfigurationError(
                f"bit index {index} out of range [0, {self.size_bits})"
            )
        self._words[index >> 3] ^= 1 << (index & 7)
        return bool(self._words[index >> 3] & (1 << (index & 7)))

    def fill_ratio(self) -> float:
        """Fraction of set bits, an observable FP-rate proxy."""
        words = np.frombuffer(self._words, dtype=np.uint8)
        whole = len(words) // 8 * 8  # 64-bit words count 4x faster than bytes
        set_bits = np.bitwise_count(words[:whole].view(np.uint64)).sum()
        return int(set_bits + np.bitwise_count(words[whole:]).sum()) / self.size_bits

    def false_positive_rate(self) -> float:
        """Theoretical FP rate ``(1 - e^{-hn/m})^h`` for current load."""
        exponent = -self.hashes * self._inserted / self.size_bits
        return (1.0 - math.exp(exponent)) ** self.hashes

    def observe_health(self, registry, **labels: object) -> None:
        """Publish fill ratio, inserted count, and estimated FP rate."""
        registry.gauge(
            "bloom_fill_ratio", "Fraction of set filter bits.", **labels
        ).set(self.fill_ratio())
        registry.gauge(
            "bloom_inserted", "Values inserted (duplicates included).", **labels
        ).set(self._inserted)
        registry.gauge(
            "bloom_false_positive_rate",
            "Estimated false-positive probability at current load.",
            **labels,
        ).set(self.false_positive_rate())


class RegisterBloomFilter:
    """Blocked ("register") Bloom filter: one word per element.

    A first hash picks one of the ``size_bits / 64`` registers; a second
    hash derives ``hashes`` bit positions inside that 64-bit word.  A
    membership probe therefore touches a single register — one stage and
    one ALU on the switch (Table 2's RBF row) — versus ``H`` scattered
    reads for the standard filter.
    """

    def __init__(self, size_bits: int, hashes: int = 3, seed: int = 0) -> None:
        if size_bits < _WORD_BITS:
            raise ConfigurationError(
                f"register filter needs at least {_WORD_BITS} bits, got {size_bits}"
            )
        if not 1 <= hashes <= _WORD_BITS:
            raise ConfigurationError(f"hashes must be in [1, 64], got {hashes}")
        self.size_bits = size_bits - size_bits % _WORD_BITS
        self.hashes = hashes
        self._seed = seed
        self._num_words = self.size_bits // _WORD_BITS
        self._registers = np.zeros(self._num_words, dtype=np.uint64)
        self._inserted = 0

    def _mask(self, value: Hashable) -> int:
        """Derive the in-word bit mask for ``value``."""
        raw = hash64(value, self._seed ^ 0xB10C)
        mask = 0
        for i in range(self.hashes):
            # Consume 6 bits of the hash per position; re-mix when exhausted.
            if i > 0 and i % 10 == 0:
                raw = hash64(raw, self._seed ^ (0xB10C + i))
            position = (raw >> (6 * (i % 10))) & (_WORD_BITS - 1)
            mask |= 1 << position
        return mask

    def _mask_batch(self, canon: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`_mask` from precomputed canonical values."""
        raw = hash64_batch(None, self._seed ^ 0xB10C, canonical=canon)
        mask = np.zeros(len(raw), dtype=np.uint64)
        for i in range(self.hashes):
            if i > 0 and i % 10 == 0:
                raw = hash64_batch(raw, self._seed ^ (0xB10C + i))
            position = (raw >> np.uint64(6 * (i % 10))) & np.uint64(_WORD_BITS - 1)
            mask |= np.uint64(1) << position
        return mask

    def _word_index(self, value: Hashable) -> int:
        return hash_range(value, self._num_words, self._seed ^ 0x5E6)

    def add(self, value: Hashable) -> None:
        """Insert ``value``: OR its mask into its register."""
        self._registers[self._word_index(value)] |= np.uint64(self._mask(value))
        self._inserted += 1

    def __contains__(self, value: Hashable) -> bool:
        mask = self._mask(value)
        return int(self._registers[self._word_index(value)]) & mask == mask

    def add_batch(self, values: Sequence[Hashable]) -> None:
        """Vectorized :meth:`add`: OR all masks into their registers."""
        count = len(values)
        for lo in range(0, count, _SLICE):
            canon = canonical_batch(values[lo : lo + _SLICE])
            index = hash_range_batch(
                None, self._num_words, self._seed ^ 0x5E6, canonical=canon
            )
            np.bitwise_or.at(
                self._registers, index.astype(np.int64), self._mask_batch(canon)
            )
        self._inserted += count

    def contains_batch(self, values: Sequence[Hashable]) -> np.ndarray:
        """Vectorized membership probe: ``result[i] == (values[i] in self)``."""
        if len(values) == 0:
            return np.ones(0, dtype=bool)
        canon = canonical_batch(values)
        index = hash_range_batch(
            None, self._num_words, self._seed ^ 0x5E6, canonical=canon
        )
        masks = self._mask_batch(canon)
        return (self._registers[index.astype(np.int64)] & masks) == masks

    def update(self, values: Iterable[Hashable]) -> None:
        """Insert every value of an iterable."""
        for value in values:
            self.add(value)

    def clear(self) -> None:
        """Reset all registers to zero."""
        self._registers.fill(0)
        self._inserted = 0

    def flip_bit(self, index: int) -> bool:
        """Invert one register bit (fault injection); returns its new value."""
        if not 0 <= index < self.size_bits:
            raise ConfigurationError(
                f"bit index {index} out of range [0, {self.size_bits})"
            )
        word, bit = divmod(index, _WORD_BITS)
        self._registers[word] ^= np.uint64(1 << bit)
        return bool(int(self._registers[word]) & (1 << bit))

    def fill_ratio(self) -> float:
        """Fraction of set bits across all registers."""
        set_bits = int(np.bitwise_count(self._registers).sum())
        return set_bits / self.size_bits

    def false_positive_rate(self) -> float:
        """Empirical FP estimate: probability all ``h`` probed bits are set.

        The blocked layout concentrates an element's bits in one word, so
        the textbook formula under-estimates; the fill-ratio power is the
        standard observable proxy.
        """
        return self.fill_ratio() ** self.hashes

    def observe_health(self, registry, **labels: object) -> None:
        """Publish fill ratio, inserted count, and estimated FP rate."""
        registry.gauge(
            "bloom_fill_ratio", "Fraction of set filter bits.", **labels
        ).set(self.fill_ratio())
        registry.gauge(
            "bloom_inserted", "Values inserted (duplicates included).", **labels
        ).set(self._inserted)
        registry.gauge(
            "bloom_false_positive_rate",
            "Estimated false-positive probability at current load.",
            **labels,
        ).set(self.false_positive_rate())
