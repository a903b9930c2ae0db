"""Serving-layer caches: compiled programs and exact results.

Both caches key on :meth:`~repro.engine.plan.Query.cache_key` — the
canonical string over operator, WHERE expression, and stream columns —
so two textually different SQL strings that parse to the same plan share
entries.

:class:`ProgramCache` holds compiled switch programs (resource
footprints) per query plan.  It layers on the switch compiler's own
memoization (:func:`~repro.switch.compiler.check_fits_cached` and the
``pack`` cache key on footprint signatures): this cache saves the
*pruner construction* that produces the footprint, the compiler caches
save the fit/pack arithmetic on it.

:class:`ResultCache` holds exact query outputs keyed by
``(cache_key, table_version)``.  The version is bumped whenever the
service's tables change, so a stale answer can never be served — a miss
and a fresh streaming pass is always preferred over a fast wrong
answer.  Outputs are frozen once on the way in (:func:`freeze_result`)
and every hit shares the same read-only view — no per-hit copy, and a
client attempting to mutate a cached set/list/Counter gets a
``TypeError`` instead of silently corrupting the cache.

**Cross-replica sharing.**  One :class:`ResultCache` may back several
fleet replicas concurrently (see :mod:`repro.fleet`).  The contract:

* every mutator (``get``'s recency bump included) runs under one lock,
  so concurrent readers from many replica executor threads see either a
  whole entry or a miss, never a torn one;
* frozen views are frozen *deeply* — a dict-of-lists output freezes its
  inner lists too — so a view handed to one replica's client can never
  mutate what another replica serves;
* :meth:`ResultCache.evict_stale` drops entries strictly **older than**
  the given version floor, never "different from" — during a rolling
  update the lagging replicas' current version stays servable while the
  already-updated replicas fill the new version's entries.  The fleet
  controller sweeps with the minimum version still live.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from types import MappingProxyType
from typing import Callable, Dict, Tuple



#: Entries each cache holds before evicting the least recently used.
PROGRAM_CACHE_ENTRIES = 512
RESULT_CACHE_ENTRIES = 256


class _LRU:
    """A tiny thread-safe LRU map with hit/miss accounting."""

    def __init__(self, max_entries: int) -> None:
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[object, object]" = OrderedDict()

    def get(self, key: object) -> Tuple[bool, object]:
        """``(hit, value)``; a hit refreshes the entry's recency."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return True, self._entries[key]
            self.misses += 1
            return False, None

    def put(self, key: object, value: object) -> None:
        """Insert/refresh ``key``, evicting the least recently used."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def remove_where(self, predicate: Callable[[object], bool]) -> int:
        """Atomically drop every entry whose key satisfies ``predicate``.

        One pass under the lock — concurrent readers see either all
        matching entries or none, never a half-invalidated cache.
        Returns how many entries were removed.
        """
        with self._lock:
            doomed = [key for key in self._entries if predicate(key)]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def stats(self) -> Dict[str, int]:
        """Point-in-time ``{"entries", "hits", "misses"}``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class FrozenList(list):
    """A list whose contents are fixed at construction.

    Compares equal to a plain list with the same elements (``list``'s
    own ``__eq__`` does the work), so frozen cached outputs remain
    interchangeable with fresh ones; every mutator raises instead.
    """

    def _readonly(self, *args, **kwargs):
        """All mutators funnel here."""
        raise TypeError("cached results are read-only; copy before mutating")

    append = _readonly
    extend = _readonly
    insert = _readonly
    remove = _readonly
    pop = _readonly
    clear = _readonly
    sort = _readonly
    reverse = _readonly
    __setitem__ = _readonly
    __delitem__ = _readonly
    __iadd__ = _readonly
    __imul__ = _readonly


def freeze_result(output: object) -> object:
    """A read-only view of a query output, safe to share across hits.

    ``set`` → ``frozenset``, ``dict``/``Counter`` → ``MappingProxyType``
    over a private copy, ``list`` → :class:`FrozenList`; scalars pass
    through.  Each conversion preserves equality with the mutable
    original, so callers comparing against reference outputs never
    notice the freeze.

    The freeze is *deep* for the mutable containers: dict values and
    list elements are frozen recursively.  Shallow freezing left a
    mutation-isolation gap once one cache served several replicas — a
    client of replica A mutating an inner list of a frozen dict view
    would have corrupted the answer replica B serves from the same
    entry.  Tuples pass through (immutable containers; their elements
    were produced by the engine and are never aliased mutably).
    """
    if isinstance(output, (frozenset, MappingProxyType, FrozenList)):
        return output
    if isinstance(output, set):
        return frozenset(output)
    if isinstance(output, dict):
        return MappingProxyType(
            {key: freeze_result(value) for key, value in output.items()}
        )
    if isinstance(output, list):
        return FrozenList(freeze_result(item) for item in output)
    return output


class ProgramCache:
    """Compiled-program (resource footprint) cache per canonical plan."""

    def __init__(self) -> None:
        self._lru = _LRU(PROGRAM_CACHE_ENTRIES)

    def footprint(self, query, build: Callable[[], object]):
        """The footprint for ``query``, building (and caching) on miss.

        ``build`` constructs the pruner and returns its
        :meth:`~repro.core.base.Pruner.footprint` — only ever invoked
        once per canonical plan while the entry stays resident.
        """
        key = query.cache_key()
        hit, footprint = self._lru.get(key)
        if hit:
            return footprint
        footprint = build()
        self._lru.put(key, footprint)
        return footprint

    def invalidate_signature(self, cache_key: str) -> int:
        """Drop the footprint cached for ``cache_key``.

        The remediation engine's version fence: after a configuration
        hot-swap the old footprint must never be served again.
        """
        return self._lru.remove_where(lambda key: key == cache_key)

    def stats(self) -> Dict[str, int]:
        """Hit/miss/occupancy accounting for reports."""
        return self._lru.stats()


class ResultCache:
    """Exact-output cache keyed by ``(cache_key, table_version)``."""

    def __init__(self) -> None:
        self._lru = _LRU(RESULT_CACHE_ENTRIES)

    def get(self, cache_key: str, version: int) -> Tuple[bool, object]:
        """``(hit, output)``; hits share one immutable frozen view."""
        hit, output = self._lru.get((cache_key, version))
        if not hit:
            return False, None
        return True, output

    def put(self, cache_key: str, version: int, output: object) -> None:
        """Cache a frozen view of ``output`` for this plan + version."""
        self._lru.put((cache_key, version), freeze_result(output))

    def invalidate_signature(self, cache_key: str) -> int:
        """Drop every retained version of one signature's output.

        Outputs are exact regardless of switch configuration, so this is
        a freshness fence, not a correctness one: after a remediation
        hot-swap the next request re-executes under the new configuration
        and the canary window measures a real post-action run instead of
        replaying a pre-action answer.
        """
        return self._lru.remove_where(
            lambda key: isinstance(key, tuple) and key[0] == cache_key
        )

    def evict_stale(self, version: int) -> int:
        """Drop every entry cached under a version **older than** ``version``.

        Version keying already makes stale entries unservable by their
        own replica; this sweep reclaims their memory eagerly instead of
        waiting for LRU ageing.  The floor semantics ("strictly less
        than", not "different from") are what make the cache safely
        shareable across fleet replicas: during a rolling update the
        already-updated replica sweeps with the *minimum* version still
        live in the fleet (the controller tracks it), so a lagging
        replica's servable entries are never yanked out from under its
        concurrent readers.  A standalone service — whose versions only
        ever increase — sees identical behaviour to the old "different
        from" sweep.
        """
        return self._lru.remove_where(
            lambda key: isinstance(key, tuple) and key[1] < version
        )

    def stats(self) -> Dict[str, int]:
        """Hit/miss/occupancy accounting for reports."""
        return self._lru.stats()
