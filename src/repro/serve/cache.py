"""Generation-keyed LRU result cache.

Entries are keyed ``(query fingerprint, store generation)`` where the
generation is :meth:`repro.storage.tiers.TieredStore.data_version` — a
counter every committed mutation bumps.  Invalidation therefore needs
no subscriptions or TTLs: a lifecycle tick (or any ingest) moves the
generation, old entries stop matching, and the gateway prunes them on
its next batch.  A cached answer is byte-identical to recomputing by
construction: same fingerprint means same endpoint and params, same
generation means the store would answer identically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of ``(fingerprint, generation) -> (payload, digest)``."""

    def __init__(self, capacity: int = 1024) -> None:
        if not capacity > 0:  # refuses NaN too
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, int], tuple[Any, str]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evicted = 0
        self.invalidated = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(
        self, fingerprint: str, generation: int
    ) -> tuple[Any, str] | None:
        """The cached (payload, digest) for this exact generation, or None."""
        key = (fingerprint, generation)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(
        self, fingerprint: str, generation: int, payload: Any, digest: str
    ) -> None:
        """Insert (idempotent per key), evicting LRU entries over capacity."""
        key = (fingerprint, generation)
        with self._lock:
            self._entries[key] = (payload, digest)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evicted += 1

    def prune_stale(self, generation: int) -> int:
        """Drop every entry not of ``generation``; returns the count.

        The gateway calls this when it observes the store generation
        move — stale entries can never match again (generations are
        monotone), so keeping them would only squeeze live ones out of
        the LRU.
        """
        with self._lock:
            stale = [k for k in self._entries if k[1] != generation]
            for key in stale:
                del self._entries[key]
            self.invalidated += len(stale)
            return len(stale)

    def stats(self) -> dict[str, int]:
        """Counters snapshot (hits/misses/evicted/invalidated/size)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evicted": self.evicted,
                "invalidated": self.invalidated,
                "size": len(self._entries),
            }
