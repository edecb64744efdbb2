"""Capacity-bounded LRU of open scheme tenants.

The daemon serves many ``(graph, k)`` tenants from one store
directory, but every open tenant pins a memory map and a compiled
router.  :class:`SchemeLRU` bounds that working set: at most
``capacity`` tenants are open at once, the least-recently-used one is
evicted when a new tenant is admitted, and an evicted tenant is simply
**re-opened (re-mmapped) on its next hit** — eviction is a performance
event, never a correctness one.  The property suite pins exactly that:
arbitrary access sequences preserve the capacity bound and LRU eviction
order, and a route answered after evict → re-mmap is bit-identical to
one answered by the original mapping.

Eviction drops the cache's reference and calls the entry's optional
``close()``; because the underlying container is an mmap, the OS keeps
the pages alive for any batch still routing on the old reference —
the same reference-lifetime draining the hot-swap path relies on.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Tuple, TypeVar

from ..obs import TELEMETRY

T = TypeVar("T")


class SchemeLRU:
    """An LRU map of tenant key → open serving state (see module doc)."""

    def __init__(self, capacity: int) -> None:
        """A cache admitting at most ``capacity`` (≥ 1) open tenants."""
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        """Number of currently open tenants."""
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is open (does not touch recency)."""
        return key in self._entries

    def keys(self) -> List[str]:
        """Open tenant keys, least recently used first."""
        return list(self._entries)

    def get(self, key: str, open_fn: Callable[[], T]) -> T:
        """The entry for ``key``, opening it via ``open_fn`` on a miss.

        A hit moves the key to most-recently-used.  A miss calls
        ``open_fn()`` *before* touching the cache (an opener that raises
        leaves the cache unchanged), inserts the result, then evicts the
        least-recently-used entries beyond ``capacity``.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            TELEMETRY.count("serve.lru_hits")
            return entry
        opened = open_fn()
        self.misses += 1
        TELEMETRY.count("serve.lru_misses")
        self._entries[key] = opened
        while len(self._entries) > self.capacity:
            self._evict_one()
        return opened

    def evict(self, key: str) -> bool:
        """Drop one tenant now (e.g. its store file disappeared)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._close(entry)
        self.evictions += 1
        TELEMETRY.count("serve.lru_evictions")
        return True

    def clear(self) -> None:
        """Drop every open tenant (daemon shutdown)."""
        for key in list(self._entries):
            self.evict(key)

    def _evict_one(self) -> Tuple[str, object]:
        """Evict the least-recently-used entry."""
        key, entry = self._entries.popitem(last=False)
        self._close(entry)
        self.evictions += 1
        TELEMETRY.count("serve.lru_evictions")
        return key, entry

    @staticmethod
    def _close(entry: object) -> None:
        """Release an evicted entry (``close()`` is optional)."""
        close = getattr(entry, "close", None)
        if callable(close):
            close()

    def stats(self) -> Dict[str, int]:
        """Counters plus current occupancy (for the ``stats`` op)."""
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
