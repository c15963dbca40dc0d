"""Bounded LRU cache of decoded row-group columns.

Dashboards re-ask near-identical questions of the same recent parts
(Fig. 6's point: the dashboard wins because repeated looks are cheap),
so the expensive step — decompress + decode of one (part, row group,
column) chunk — is cached under the part's *content digest*.  Keys are
content-addressed, so a compaction that rewrites parts can never serve
stale data; explicit invalidation (by token) exists purely to release
memory the moment a part is deleted.

Cached arrays are marked read-only and shared by reference: a masked
scan copies on fancy-indexing anyway, and a full-group projection hands
out the cached view directly (mutating query output was never supported
— now it raises instead of silently corrupting).

Concurrency: one module-level lock guards the OrderedDict, its
per-token key index and the byte budget; hit/miss/evict counters go to
the process-wide perf registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro.perf import PERF

__all__ = [
    "cached_column",
    "invalidate_token",
    "clear_row_group_cache",
    "row_group_cache_stats",
    "row_group_cache_disabled",
    "set_row_group_cache_limit",
]

_cache_lock = threading.Lock()
_cache: "OrderedDict[tuple[str, int, str], np.ndarray]" = OrderedDict()
#: token -> that part's keys in ``_cache``, maintained with it under
#: ``_cache_lock`` so deleting a part costs O(its entries), not a walk
#: of every key.
_token_keys: dict[str, set[tuple[str, int, str]]] = {}
_cache_bytes = 0
_cache_max_bytes = 64 << 20
_cache_enabled = True
#: Toggle depth counter: ``_cache_enabled`` is maintained from this
#: under ``_cache_lock`` so overlapping toggles cannot restore a stale
#: value (see PerfRegistry.disabled for the pattern).
_cache_disable_depth = 0


def cached_column(
    token: str, group: int, name: str, loader: Callable[[], np.ndarray]
) -> np.ndarray:
    """The decoded column for ``(token, group, name)``; decodes via
    ``loader`` on a miss and retains the (read-only) result."""
    global _cache_bytes
    if not _cache_enabled:
        return loader()
    key = (token, group, name)
    with _cache_lock:
        arr = _cache.get(key)
        if arr is not None:
            _cache.move_to_end(key)
    if arr is not None:
        PERF.count("query.cache_hits")
        return arr
    PERF.count("query.cache_misses")
    arr = loader()
    arr.setflags(write=False)
    evicted = 0
    with _cache_lock:
        if key not in _cache:
            _cache[key] = arr
            _cache_bytes += arr.nbytes
            _token_keys.setdefault(token, set()).add(key)
        _cache.move_to_end(key)
        while _cache_bytes > _cache_max_bytes and len(_cache) > 1:
            old, dropped = _cache.popitem(last=False)
            _cache_bytes -= dropped.nbytes
            _token_keys[old[0]].discard(old)
            if not _token_keys[old[0]]:
                del _token_keys[old[0]]
            evicted += 1
    if evicted:
        PERF.count("query.cache_evictions", evicted)
    return arr


def invalidate_token(token: str) -> int:
    """Drop every cached group of one part (by content digest).

    Returns the number of entries released.  Correctness never depends
    on this — digests are content-addressed — it only returns memory
    held for parts that compaction or retention just deleted.
    """
    global _cache_bytes
    with _cache_lock:
        stale = _token_keys.pop(token, ())
        for k in stale:
            _cache_bytes -= _cache.pop(k).nbytes
    return len(stale)


def clear_row_group_cache() -> None:
    """Empty the cache (benchmark isolation)."""
    global _cache_bytes
    with _cache_lock:
        _cache.clear()
        _token_keys.clear()
        _cache_bytes = 0


def row_group_cache_stats() -> dict:
    """Occupancy of the cache (counters live in the perf registry)."""
    with _cache_lock:
        return {
            "entries": len(_cache),
            "bytes": _cache_bytes,
            "max_bytes": _cache_max_bytes,
        }


@contextmanager
def row_group_cache_disabled():
    """Context manager bypassing the cache (the decode-everything
    baseline must pay full decode cost on every scan).  Overlap-safe
    via a lock-guarded depth counter (see PerfRegistry.disabled)."""
    global _cache_disable_depth, _cache_enabled
    with _cache_lock:
        _cache_disable_depth += 1
        _cache_enabled = False
    try:
        yield
    finally:
        with _cache_lock:
            _cache_disable_depth -= 1
            _cache_enabled = _cache_disable_depth == 0


def set_row_group_cache_limit(max_bytes: int) -> None:
    """Resize the byte budget, evicting LRU entries to fit."""
    global _cache_bytes, _cache_max_bytes
    if max_bytes <= 0:
        raise ValueError("max_bytes must be positive")
    evicted = 0
    with _cache_lock:
        _cache_max_bytes = max_bytes
        while _cache_bytes > _cache_max_bytes and _cache:
            old, dropped = _cache.popitem(last=False)
            _cache_bytes -= dropped.nbytes
            _token_keys[old[0]].discard(old)
            if not _token_keys[old[0]]:
                del _token_keys[old[0]]
            evicted += 1
    if evicted:
        PERF.count("query.cache_evictions", evicted)
