"""The gateway's LRU result cache.

The **KEM-result cache** stores the output of ``Preenc`` as canonical
bytes, one map per delegation: ``{delegation: {ciphertext bytes:
re-encrypted bytes}}``.  ``Preenc`` is deterministic — the transformed
ciphertext is a pure function of the input ciphertext and the installed
key — so replaying a cached result is sound as long as the delegation's
map is dropped when its key changes, which the gateway does on every
grant and revoke.

Every entry lives in a group (``None`` unless the caller names one), and
one recency order spans all groups: eviction takes the least recently
used entry wherever it is filed, and :meth:`LruCache.invalidate_where`
drops one group's entries without looking at any other.

Hits, misses and evictions are reported both locally (:class:`CacheStats`)
and through :func:`repro.bench.counters.record_operation`, so the E9
benchmark can attribute saved pairings to the cache with the same
machinery E1 uses for group operations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.bench.counters import record_operation

__all__ = ["LruCache", "CacheStats"]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of one cache's accounting."""

    name: str
    size: int
    capacity: int
    hits: int
    misses: int
    evictions: int
    invalidations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LruCache:
    """A bounded, grouped mapping with least-recently-used eviction.

    Thread-safe: a single internal lock covers entries *and* counters, so
    concurrent gateway calls never corrupt the recency order or lose a
    hit/miss increment (the consistency the stress tests assert on).
    """

    def __init__(self, capacity: int, name: str = "cache"):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._lock = threading.Lock()
        # group -> (the group object first filed, {key: value}).  Recency
        # keys reuse that first group object, so all of a group's entries
        # share one copy of it rather than each keeping the caller's.
        self._groups: dict[Hashable, tuple[Hashable, dict]] = {}
        self._order: OrderedDict[tuple, None] = OrderedDict()  # (group, key), oldest first
        self._hit_op = "%s_hit" % name
        self._miss_op = "%s_miss" % name
        self._eviction_op = "%s_eviction" % name
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    def __contains__(self, key: Hashable) -> bool:
        return self.contains(key)

    def contains(self, key: Hashable, group: Hashable = None) -> bool:
        """Whether ``key`` is cached, without touching recency or stats."""
        with self._lock:
            filed = self._groups.get(group)
            return filed is not None and key in filed[1]

    def get(self, key: Hashable, default: Any = None, group: Hashable = None) -> Any:
        """Look up ``key`` in ``group``, refreshing its recency on a hit."""
        with self._lock:
            filed = self._groups.get(group)
            if filed is not None and key in filed[1]:
                self._order.move_to_end((filed[0], key))
                self._hits += 1
                record_operation(self._hit_op)
                return filed[1][key]
            self._misses += 1
            record_operation(self._miss_op)
            return default

    def put(self, key: Hashable, value: Any, group: Hashable = None) -> None:
        """Insert (or refresh) an entry, evicting the oldest when full."""
        with self._lock:
            filed = self._groups.get(group)
            if filed is None:
                filed = self._groups[group] = (group, {})
            entry = (filed[0], key)
            if entry in self._order:
                self._order.move_to_end(entry)
            else:
                self._order[entry] = None
            filed[1][key] = value
            if len(self._order) > self.capacity:
                oldest_group, oldest_key = self._order.popitem(last=False)[0]
                entries = self._groups[oldest_group][1]
                del entries[oldest_key]
                if not entries:
                    del self._groups[oldest_group]
                self._evictions += 1
                record_operation(self._eviction_op)

    def invalidate_where(self, group: Hashable) -> int:
        """Drop every entry filed under ``group``; returns the count.

        Used on grant and revoke, where one delegation may back many
        cached KEM results: the delegation's map goes in one pop, and
        no other group's entries are looked at.
        """
        with self._lock:
            filed = self._groups.pop(group, None)
            if filed is None:
                return 0
            for key in filed[1]:
                del self._order[(filed[0], key)]
            self._invalidations += len(filed[1])
            return len(filed[1])

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                size=len(self._order),
                capacity=self.capacity,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
            )
