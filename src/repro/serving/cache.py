"""A small LRU cache for linking results.

Keys are built by the service from what the query-graph builder and the
candidate generator read (the snippet's mentions and categories, its
ambiguous index and the restrict flag), so two requests share an entry
exactly when the model would score them identically.  Backed by an
``OrderedDict``; not thread-safe (the service is single-threaded,
matching the numpy execution model).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    ``capacity <= 0`` disables caching entirely (every ``get`` misses and
    ``put`` is a no-op), which the service uses for its uncached baseline
    mode and the equivalence benchmarks.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value, or None.  Hit/miss accounting is the
        caller's job (the service owns its own ServiceStats counters)."""
        if self.capacity <= 0 or key not in self._data:
            return None
        self._data.move_to_end(key)
        return self._data[key]

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity <= 0:
            return
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def __contains__(self, key: Hashable) -> bool:
        return self.capacity > 0 and key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()
