"""Synthetic stream generators for the pruning-rate simulations (§8.3).

All generators are seeded and deterministic.  They produce the stream
*shapes* the paper's simulations rely on: random-order streams with a
controlled number of distinct values, Zipf-skewed keys, heavy-tailed
revenues, and uniform multi-dimensional points.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError


def random_order_stream(length: int, distinct: int, seed: int = 0) -> List[int]:
    """A stream of ``length`` draws over ``distinct`` values, random order.

    Every distinct value appears at least once (so DISTINCT ground truth
    is exactly ``distinct``); the remaining draws are uniform.
    """
    if distinct <= 0 or length < distinct:
        raise ConfigurationError(
            f"need 0 < distinct <= length, got distinct={distinct} length={length}"
        )
    rng = np.random.default_rng(seed)
    base = np.arange(distinct)
    extra = rng.integers(0, distinct, size=length - distinct)
    stream = np.concatenate([base, extra])
    rng.shuffle(stream)
    return stream.tolist()


def zipf_keys(length: int, distinct: int, skew: float = 1.2, seed: int = 0) -> List[int]:
    """Zipf-skewed keys in ``[0, distinct)`` (user agents, language codes)."""
    if distinct <= 0:
        raise ConfigurationError(f"distinct must be positive, got {distinct}")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, distinct + 1, dtype=float)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(distinct, size=length, p=weights).tolist()


def revenue_stream(length: int, scale: float = 100.0, seed: int = 0) -> List[float]:
    """Heavy-tailed positive values (ad revenue): lognormal draws."""
    rng = np.random.default_rng(seed)
    return (rng.lognormal(mean=0.0, sigma=1.5, size=length) * scale).tolist()


def uniform_points(length: int, dims: int = 2, seed: int = 0) -> List[Tuple[float, ...]]:
    """Uniform integer points in ``[0, 2**16)^dims`` for SKYLINE."""
    if dims < 1:
        raise ConfigurationError(f"dims must be >= 1, got {dims}")
    rng = np.random.default_rng(seed)
    raw = rng.integers(0, 1 << 16, size=(length, dims))
    return [tuple(float(v) for v in row) for row in raw]


def keyed_values(
    length: int,
    distinct_keys: int,
    skew: float = 1.2,
    seed: int = 0,
) -> List[Tuple[int, float]]:
    """``(key, value)`` pairs: Zipf keys with lognormal values (GROUP BY / HAVING)."""
    keys = zipf_keys(length, distinct_keys, skew=skew, seed=seed)
    values = revenue_stream(length, scale=100.0, seed=seed ^ 0x5EED)
    return list(zip(keys, values))


def overlapping_key_sets(
    left_size: int,
    right_size: int,
    overlap: float = 0.1,
    seed: int = 0,
) -> Tuple[List[int], List[int]]:
    """Two key streams sharing roughly ``overlap`` of the smaller side (JOIN).

    The paper's JOIN evaluation takes random 10% subsets of tables with
    matching keys — an effective ~10% overlap, which this reproduces.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ConfigurationError(f"overlap must be in [0, 1], got {overlap}")
    rng = np.random.default_rng(seed)
    shared_count = int(min(left_size, right_size) * overlap)
    shared = rng.integers(0, 1 << 40, size=shared_count)
    left_only = rng.integers(1 << 40, 1 << 41, size=left_size - shared_count)
    right_only = rng.integers(1 << 41, 1 << 42, size=right_size - shared_count)
    left = np.concatenate([shared, left_only])
    right = np.concatenate([shared, right_only])
    rng.shuffle(left)
    rng.shuffle(right)
    return left.tolist(), right.tolist()


def prefixes(stream: Sequence, fractions: Sequence[float]) -> List[Sequence]:
    """Stream prefixes at the given fractions (the Fig. 11 scale sweep)."""
    return [stream[: max(1, int(len(stream) * f))] for f in fractions]
