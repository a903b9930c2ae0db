"""Probabilistic data-structure substrate shared by the pruning algorithms.

Everything here is switch-implementable: word-wide registers, a small hash
family, and per-packet operations touching O(1) state per stage.
"""

from .bloom import BloomFilter, RegisterBloomFilter
from .cachematrix import (
    CacheMatrix,
    KeyedAggregateMatrix,
    RollingMinMatrix,
    expected_distinct_pruning,
)
from .countmin import CountMinSketch
from .fingerprint import (
    FingerprintScheme,
    max_row_load,
    required_bits,
    required_bits_simple,
    scheme_for,
)
from .hashing import (
    Hashable,
    canonical_int,
    fingerprint,
    hash64,
    hash_family,
    hash_range,
)

__all__ = [
    "BloomFilter",
    "RegisterBloomFilter",
    "CacheMatrix",
    "KeyedAggregateMatrix",
    "RollingMinMatrix",
    "expected_distinct_pruning",
    "CountMinSketch",
    "FingerprintScheme",
    "max_row_load",
    "required_bits",
    "required_bits_simple",
    "scheme_for",
    "Hashable",
    "canonical_int",
    "fingerprint",
    "hash64",
    "hash_family",
    "hash_range",
]
