"""A bounded mapping with least-recently-used eviction.

:class:`LRUCache` keeps hit/miss counters and caps in-process caches (e.g.
the simulator's trace cache) so long-lived server-style processes cannot
grow without bound. The hardware tables keep their own recency lists
(:mod:`repro.memory.cache`, :mod:`repro.mdp.tables`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Iterator, NamedTuple, Optional, TypeVar

V = TypeVar("V")


class CacheInfo(NamedTuple):
    """Observability snapshot of an :class:`LRUCache` (functools-style)."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` promotes the entry to most-recently-used; ``put`` inserts (or
    refreshes) an entry and evicts the least recently used one when the cache
    is over capacity. Hits and misses are counted for observability via
    :meth:`info`.
    """

    __slots__ = ("_maxsize", "_data", "_hits", "_misses")

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def resize(self, maxsize: int) -> None:
        """Change the capacity, evicting LRU entries if shrinking below size."""
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self._maxsize = maxsize
        while len(self._data) > maxsize:
            self._data.popitem(last=False)

    def get(self, key: Hashable, default: Optional[V] = None):
        """Return the cached value (promoting it), or ``default`` on a miss."""
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._data.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert or refresh ``key``, evicting the LRU entry if over capacity."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self._maxsize:
            self._data.popitem(last=False)

    def peek(self, key: Hashable, default: Optional[V] = None):
        """Like :meth:`get` but without promoting or counting hits/misses."""
        return self._data.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._data)

    def clear(self) -> None:
        """Drop every entry (the hit/miss counters keep accumulating)."""
        self._data.clear()

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self._hits,
            misses=self._misses,
            maxsize=self._maxsize,
            currsize=len(self._data),
        )

    def __repr__(self) -> str:
        return (
            f"LRUCache(maxsize={self._maxsize}, size={len(self._data)}, "
            f"hits={self._hits}, misses={self._misses})"
        )
