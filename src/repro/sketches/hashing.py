"""Seeded 64-bit hash family used by every sketch in the library.

Programmable switches expose a small set of hardware hash units (CRC
polynomials with per-unit seeds).  We model them with a splitmix64-based
family: deterministic, cheap, and well distributed, with independent
streams selected by ``seed``.  All sketches take hash functions from
:func:`hash_family` so tests can fix seeds and reproduce exact layouts.

Every scalar function has a ``*_batch`` twin operating on whole
``np.uint64`` arrays with bit-for-bit identical outputs — the substrate
of the vectorized dataplane (``Pruner.process_batch``).  The batch
functions model the same hardware hash units; they only amortize the
interpreter overhead of driving them one packet at a time.
"""

from __future__ import annotations

import struct

from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

_MASK64 = (1 << 64) - 1

# uint64 constants for the vectorized kernels (NumPy >= 2 keeps uint64
# arithmetic in uint64 under NEP 50; wrapping multiplication/addition is
# exactly the scalar `& _MASK64` behaviour).
_U64 = np.uint64
_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_FNV_OFFSET = _U64(0xCBF29CE484222325)
_FNV_PRIME = _U64(0x100000001B3)
_LOW32 = _U64(0xFFFFFFFF)

#: Values every hash function in the library accepts.
Hashable = Union[int, str, bytes, float, tuple]


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _bytes_to_int(data: bytes) -> int:
    """Fold arbitrary bytes into a 64-bit integer with FNV-1a."""
    acc = 0xCBF29CE484222325
    for byte in data:
        acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
    return acc


def canonical_int(value: Hashable) -> int:
    """Map any supported value to a canonical 64-bit integer.

    Integers map to themselves (mod 2^64); strings and bytes are folded
    with FNV-1a; floats use their IEEE-754 bit pattern; tuples fold their
    elements recursively.  The mapping is stable across processes (unlike
    built-in ``hash``, which is salted for str).
    """
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, int):
        return value & _MASK64
    if isinstance(value, np.integer):
        return int(value) & _MASK64
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, bytes):
        return _bytes_to_int(value)
    if isinstance(value, str):
        return _bytes_to_int(value.encode("utf-8"))
    if isinstance(value, float):
        return _bytes_to_int(struct.pack("<d", value))
    if isinstance(value, tuple):
        acc = 0x9E3779B97F4A7C15
        for element in value:
            acc = _splitmix64(acc ^ canonical_int(element))
        return acc
    raise TypeError(f"unhashable value type for switch hashing: {type(value)!r}")


def hash64(value: Hashable, seed: int = 0) -> int:
    """Hash ``value`` to a uniform 64-bit integer under stream ``seed``."""
    return _splitmix64(canonical_int(value) ^ _splitmix64(seed & _MASK64))


def hash_range(value: Hashable, n: int, seed: int = 0) -> int:
    """Hash ``value`` into ``{0, ..., n - 1}``.

    Uses the high multiply trick (Lemire reduction) instead of modulo to
    avoid bias for ``n`` far from a power of two.
    """
    if n <= 0:
        raise ValueError(f"range size must be positive, got {n}")
    return (hash64(value, seed) * n) >> 64


HashFn = Callable[[Hashable], int]


def hash_family(count: int, n: int, base_seed: int = 0) -> List[HashFn]:
    """Return ``count`` independent hash functions into ``{0, ..., n-1}``.

    Switch hardware provides a handful of independent hash units; sketches
    (Bloom filters, Count-Min) request them through this factory.
    """
    if count <= 0:
        raise ValueError(f"need at least one hash function, got {count}")

    def make(seed: int) -> HashFn:
        return lambda value: hash_range(value, n, seed)

    return [make(base_seed * 0x1000 + i + 1) for i in range(count)]


def fingerprint(value: Hashable, bits: int, seed: int = 0) -> int:
    """Return a ``bits``-wide fingerprint of ``value``.

    Fingerprints compress wide or multi-column keys into a fixed number of
    bits parseable by the switch (paper §5, Example 8).  ``bits`` must be
    in ``[1, 64]``.
    """
    if not 1 <= bits <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {bits}")
    return hash64(value, seed ^ 0x5FD1) >> (64 - bits)


# -- vectorized batch kernels --------------------------------------------------


def _splitmix64_inplace(x: np.ndarray) -> np.ndarray:
    """One splitmix64 round over a ``uint64`` array, mutating ``x``."""
    x += _GAMMA
    x ^= x >> _U64(30)
    x *= _MIX1
    x ^= x >> _U64(27)
    x *= _MIX2
    x ^= x >> _U64(31)
    return x


def _fnv_double_batch(values: np.ndarray) -> np.ndarray:
    """Vectorized FNV-1a over the little-endian bytes of float64 values."""
    data = np.ascontiguousarray(values, dtype="<f8").view(np.uint8)
    data = data.reshape(len(values), 8)
    acc = np.full(len(values), _FNV_OFFSET, dtype=np.uint64)
    for i in range(8):
        acc ^= data[:, i].astype(np.uint64)
        acc *= _FNV_PRIME
    return acc


def canonical_batch(values) -> np.ndarray:
    """Vectorized :func:`canonical_int`: a ``uint64`` array of canon values.

    Accepts a 1-D numpy array or any sequence.  Integer, boolean and float
    dtypes are converted with vectorized kernels; a string or bytes array
    folds each distinct value once; tuples, object arrays and mixed
    sequences fall back to a per-element :func:`canonical_int` loop (still
    bit-for-bit identical, just not SIMD).  Output ``i`` always equals
    ``canonical_int(values[i])``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        kind = values.dtype.kind
        if kind == "b":
            return values.astype(np.uint64)
        if kind == "u":
            return values.astype(np.uint64)
        if kind == "i":
            return values.astype(np.int64).view(np.uint64)
        if kind == "f":
            return _fnv_double_batch(values)
        if kind in "US":
            # Equal strings fold equally: fold each distinct one once, found
            # by a dict rather than np.unique, whose sort costs an array of
            # mostly distinct strings more than it saves.  Not object
            # arrays, where 1, 1.0 and True are one key with three canons.
            items = values.tolist()
            folded = dict.fromkeys(items)
            for value in folded:
                folded[value] = canonical_int(value)
            return np.fromiter(
                map(folded.__getitem__, items), dtype=np.uint64, count=len(items)
            )
        return np.fromiter(
            (canonical_int(v) for v in values), dtype=np.uint64, count=len(values)
        )
    seq = values if isinstance(values, (list, tuple)) else list(values)
    if seq and isinstance(seq[0], (int, float, bool, np.integer, np.floating, np.bool_)):
        try:
            arr = np.asarray(seq)
        except (OverflowError, ValueError):
            arr = None
        # np.asarray merges Python ints with floats (and ints past int64
        # with each other) into float64; only an all-float sequence may
        # take the float kernel, anything merged loops per element.
        if (
            arr is not None
            and arr.ndim == 1
            and arr.dtype.kind in "buif"
            and (
                arr.dtype.kind != "f"
                or all(isinstance(v, (float, np.floating)) for v in seq)
            )
        ):
            return canonical_batch(arr)
    return np.fromiter(
        (canonical_int(v) for v in seq), dtype=np.uint64, count=len(seq)
    )


def hash64_batch(
    values, seed: int = 0, canonical: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized :func:`hash64`: uniform 64-bit hashes as a ``uint64`` array.

    ``canonical`` lets callers that probe several seeds (Bloom filters,
    Count-Min rows) reuse one :func:`canonical_batch` pass.
    """
    if canonical is None:
        canonical = canonical_batch(values)
    mixed = canonical ^ _U64(_splitmix64(seed & _MASK64))
    return _splitmix64_inplace(mixed)


def _mulhi64(x: np.ndarray, n: int) -> np.ndarray:
    """High 64 bits of ``x * n`` for a ``uint64`` array and ``n < 2**64``."""
    x_lo = x & _LOW32
    x_hi = x >> _U64(32)
    if n < 1 << 32:
        y = _U64(n)
        return (x_hi * y + ((x_lo * y) >> _U64(32))) >> _U64(32)
    y_lo = _U64(n & 0xFFFFFFFF)
    y_hi = _U64(n >> 32)
    lo_lo = x_lo * y_lo
    hi_lo = x_hi * y_lo
    lo_hi = x_lo * y_hi
    hi_hi = x_hi * y_hi
    cross = (lo_lo >> _U64(32)) + (hi_lo & _LOW32) + lo_hi
    return hi_hi + (hi_lo >> _U64(32)) + (cross >> _U64(32))


def hash_range_batch(
    values, n: int, seed: int = 0, canonical: Optional[np.ndarray] = None
) -> np.ndarray:
    """Vectorized :func:`hash_range`: indexes in ``{0, ..., n-1}``.

    Same Lemire high-multiply reduction as the scalar function, computed
    with 32-bit limb arithmetic (numpy has no 128-bit integers), or for
    ``n == 2**k`` one shift: the high word is the hash's top ``k`` bits.
    """
    if n <= 0:
        raise ValueError(f"range size must be positive, got {n}")
    hashed = hash64_batch(values, seed, canonical=canonical)
    if n & (n - 1):
        return _mulhi64(hashed, n)
    hashed >>= _U64(65 - n.bit_length())  # n == 1 shifts every bit out
    return hashed


def key_codes(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` of a 1-D array.

    An integer array spanning at most as many values as it holds is ranked
    through one count table, not a sort.  ``intp`` offsets wrap, so they
    are exact for every integer width; codes overwrite their offsets.
    """
    if values.dtype.kind in "iu" and len(values):
        lo = values.min()
        if int(values.max()) - int(lo) <= len(values):
            offset = np.subtract(values, lo, dtype=np.intp, casting="unsafe")
            seen = np.bincount(offset) > 0
            distinct = lo + np.flatnonzero(seen).astype(values.dtype)
            rank = np.cumsum(seen) - 1
            return distinct, np.take(rank, offset, out=offset, mode="clip")
    return np.unique(values, return_inverse=True)


def stable_order(ids: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of ``ids`` the caller knows to lie in ``[0, bound)``
    (matrix rows, Count-Min counters).  Each id is packed above its
    position into one unsigned word: the words are distinct, so numpy's
    unstable (SIMD) sort orders them stably, several times faster than a
    stable argsort, and the low bits are the order."""
    count = len(ids)
    shift = count.bit_length()
    if bound << shift > 1 << 64:
        return np.argsort(ids, kind="stable")
    wide = np.uint32 if bound << shift <= 1 << 32 else np.uint64
    key = ids.astype(wide) << wide(shift)
    key |= np.arange(count, dtype=wide)
    key.sort()
    key &= wide((1 << shift) - 1)
    return key.astype(np.intp)


BatchHashFn = Callable[[Sequence], np.ndarray]


def fingerprint_batch(values, bits: int, seed: int = 0) -> np.ndarray:
    """Vectorized :func:`fingerprint`: ``bits``-wide fingerprints."""
    if not 1 <= bits <= 64:
        raise ValueError(f"fingerprint width must be in [1, 64], got {bits}")
    return hash64_batch(values, seed ^ 0x5FD1) >> _U64(64 - bits)
