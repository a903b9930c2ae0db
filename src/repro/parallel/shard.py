"""Shard planning: which rows does each pruner shard own, and why.

Two layouts, with the multiswitch extension's semantics (§9):

* ``contiguous`` — shard *i* owns the rows of worker partition *i*
  (:meth:`Table.partition_bounds`, so sequential and parallel runs
  partition identically).  Sound whenever per-shard pruner *replicas*
  are individually correct for an arbitrary slice of the stream: the
  stateless filter, deterministic TOP N thresholds, and SKYLINE's
  drain-at-FIN cache — and, superset-safely, any cache-based pruner.
* ``hash`` — shard ownership by key hash, the multiswitch partitioner
  (:func:`repro.extensions.multiswitch.hash_partition_batch`), which
  keeps same-key entries on one shard.  *Required* for HAVING (a key's
  Count-Min tally split across shards could stay under threshold on
  every shard and lose the key) and JOIN (a Bloom filter that saw only
  half a key column would produce false negatives — lost join rows,
  not a superset).  Default for the other stateful caches
  (DISTINCT / GROUP BY / randomized TOP N), where it keeps per-shard
  forwarding close to the sequential pruner's.

:func:`resolve_policy` picks the layout from the operator alone.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional

import numpy as np

from ..engine.operators import CONTIGUOUS, HASHED, resolve_policy  # noqa: F401
from ..engine.table import Table
from ..extensions.multiswitch import hash_partition_batch
from ..sketches.hashing import hash64_batch


def shard_key_values(key: tuple, table: Table) -> np.ndarray:
    """The per-row key array hash sharding partitions on, for a plan
    side's key signature (:attr:`repro.engine.operators.Side.key`)."""
    kind, columns = key
    if kind == "column":
        return table.column(columns)
    if len(columns) == 1:
        return table.column(columns[0])
    # Multi-column entries: fold per-column hashes into one 64-bit key.
    # Equal entries fold equally, which is all sharding needs.
    acc: Optional[np.ndarray] = None
    for i, name in enumerate(columns):
        hashed = hash64_batch(table.column(name), seed=i)
        acc = hashed if acc is None else (acc * np.uint64(0x100000001B3)) ^ hashed
    return acc


def plan_hash_shards(values: np.ndarray, shards: int) -> List[np.ndarray]:
    """Per-shard row-index arrays (ascending) for hash sharding."""
    assignment = hash_partition_batch(values, shards)
    return [
        np.flatnonzero(assignment == shard).astype(np.int64)
        for shard in range(shards)
    ]


# -- shard-plan memoization ---------------------------------------------------
#
# Hash-shard planning is deterministic in (key array, shard count), and a
# serving table's columns are immutable, so the per-run recomputation of
# shard_key_values + plan_hash_shards is pure waste on repeat queries.
# The cache keys on (table id, key signature, parallelism) with a
# *weakref* to the table: ``id()`` alone can collide after garbage
# collection, so a hit also checks the weakref still points at the same
# live object.  A swapped table map (the serving layer's
# ``tables_version`` bump) holds new objects, so stale plans can never be
# served — they just age out.  :func:`invalidate_shard_plans` is the
# explicit hook (the serving layer calls it on ``update_tables``).

_PLAN_CACHE: "OrderedDict[tuple, tuple]" = OrderedDict()
_PLAN_CACHE_MAX = 128
_PLAN_LOCK = threading.Lock()
_PLAN_STATS = {"hits": 0, "misses": 0}


def _plan_cache_lookup(key: tuple, anchor: object):
    """``(hit, value)`` — a hit requires the anchor to still be alive."""
    with _PLAN_LOCK:
        slot = _PLAN_CACHE.get(key)
        if slot is not None:
            ref, value = slot
            if ref() is anchor:
                _PLAN_STATS["hits"] += 1
                _PLAN_CACHE.move_to_end(key)
                return True, value
            del _PLAN_CACHE[key]  # id() recycled by a different object
        _PLAN_STATS["misses"] += 1
        return False, None


def _plan_cache_store(key: tuple, anchor: object, value: object) -> None:
    with _PLAN_LOCK:
        _PLAN_CACHE[key] = (weakref.ref(anchor), value)
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
            _PLAN_CACHE.popitem(last=False)


def cached_hash_plan(key: tuple, table: Table, shards: int) -> List[np.ndarray]:
    """:func:`plan_hash_shards` over a side's shard key, memoized per
    (table, key signature, parallelism) — and the key values per (table,
    key signature), so GROUP BY and HAVING over one key column, or the
    same plan at another parallelism, share them."""
    cache_key = ("plan", id(table), key, shards)
    hit, plan = _plan_cache_lookup(cache_key, table)
    if hit:
        return plan
    values_key = ("keys", id(table), key)
    hit, values = _plan_cache_lookup(values_key, table)
    if not hit:
        values = shard_key_values(key, table)
        _plan_cache_store(values_key, table, values)
    plan = plan_hash_shards(values, shards)
    _plan_cache_store(cache_key, table, plan)
    return plan


def invalidate_shard_plans() -> int:
    """Drop every memoized shard plan; returns how many were dropped.

    The explicit invalidation hook for table swaps — identity fencing
    already guarantees correctness, this reclaims the memory eagerly.
    """
    with _PLAN_LOCK:
        dropped = len(_PLAN_CACHE)
        _PLAN_CACHE.clear()
        return dropped


def shard_plan_cache_stats() -> Dict[str, int]:
    """Point-in-time ``{"entries", "hits", "misses"}``."""
    with _PLAN_LOCK:
        return {
            "entries": len(_PLAN_CACHE),
            "hits": _PLAN_STATS["hits"],
            "misses": _PLAN_STATS["misses"],
        }


def derive_shard_seed(base_seed: int, shard: int) -> int:
    """A per-shard seed, deterministic in ``(base_seed, shard)``.

    Distinct shards get decorrelated pruner hash functions, and repeated
    runs at the same parallelism reproduce bit-identical state — the
    determinism contract of the parallel mode.  Shard 0 at base seed 0
    intentionally differs from the sequential seed only by the mix, not
    by any process-dependent input (no pids, no time).
    """
    mixed = (base_seed * 0x9E3779B97F4A7C15 + (shard + 1) * 0xBF58476D1CE4E5B9) & (
        (1 << 63) - 1
    )
    return int(mixed)
