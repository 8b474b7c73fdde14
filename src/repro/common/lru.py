"""A small counted LRU map: the one bounded cache the driver builds its
statement, plan and result caches from."""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar, ValuesView

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """Bounded ``key -> value`` map with least-recently-used eviction.

    :meth:`lookup` takes an optional validity check: an entry that fails
    it is dropped and counted as an invalidation *and* a miss, so the
    hit ratio reflects lookups that were actually answered from the
    cache.  Values must not be ``None`` (that is the miss result).
    """

    def __init__(self, capacity: int):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def values(self) -> ValuesView[V]:
        """Live values, least recently used first."""
        return self._entries.values()

    def lookup(self, key: K,
               is_current: Optional[Callable[[V], bool]] = None) -> Optional[V]:
        entry = self._entries.get(key)
        if entry is not None and is_current is not None and not is_current(entry):
            del self._entries[key]
            self.invalidations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(self, key: K, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> Dict[str, int]:
        """Counters for ``Session.caches()`` (public introspection)."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
