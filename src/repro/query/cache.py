"""Bounded, loop-resistant cache of decoded row-group columns.

Dashboards re-ask near-identical questions of the same recent parts
(Fig. 6's point: the dashboard wins because repeated looks are cheap),
so the expensive step — decompress + decode of one (part, row group,
column) chunk — is cached under the part's *content digest*.  Only
chunks that cost a decode come here: a raw PLAIN chunk is read in place
as a view of the part's bytes (``RcfReader.raw_view``) and never cached,
so it takes no budget and pushes nothing out.  Keys are
content-addressed, so a compaction that rewrites parts can never serve
stale data; explicit invalidation (by token) exists purely to release
memory the moment a part is deleted.  Nothing reaches the cache under
``baseline_mode()``: the decode-everything oracle decodes every chunk
itself.

Order is LRU, but eviction is gated by frequency (TinyLFU's admission
rule on exact counts): the cache remembers how often every key —
resident or not — has been asked for, and a decoded newcomer replaces
the LRU victims it needs only if it had been asked for strictly more
often than each of them before this request.  On a tie the resident
stays and the newcomer is returned uncached, so a cyclic scan larger
than the budget keeps a stable resident set instead of evicting every
entry just before it is asked for again, and a one-off scan cannot
flush a hot set.  Counts saturate low and are halved on an access
cadence (never a clock), so a shifted working set takes over within a
bounded number of asks.  The rule decides only whether a decoded array
is *kept*; it can never change an answer.

Cached arrays are marked read-only and shared by reference: a masked
scan copies on fancy-indexing anyway, and a full-group projection hands
out the cached view directly (mutating query output was never supported
— now it raises instead of silently corrupting).

Concurrency: one module-level lock guards the OrderedDict, its
per-token key index, the ask counts and the byte budget;
hit/miss/evict/reject counters go to the process-wide perf registry.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.perf import PERF

__all__ = [
    "cached_column",
    "invalidate_token",
    "clear_row_group_cache",
    "row_group_cache_stats",
    "set_row_group_cache_limit",
]

Key = tuple[str, int, str]

_cache_lock = threading.Lock()
_cache: "OrderedDict[Key, np.ndarray]" = OrderedDict()
#: token -> that part's keys in ``_cache``, maintained with it under
#: ``_cache_lock`` so deleting a part costs O(its entries), not a walk
#: of every key.
_token_keys: dict[str, set[Key]] = {}
#: Bytes charged for each resident key (see :func:`_weigh`).
_weights: dict[Key, int] = {}
#: token -> key -> how often the key was asked for, resident or not.
#: Saturates at ``_ASKED_CAP``; nested by token so deleting a part drops
#: its history in one pop and the map stays bounded by the live chunks.
_asked: dict[str, dict[Key, int]] = {}
_ASKED_CAP = 15
#: Every count is halved (zeros dropped) once this many accesses have
#: passed since the last halving — accesses, never a clock.
_AGE_MIN_ACCESSES = 1024
_AGE_ACCESSES_PER_ENTRY = 10
_accesses_since_aging = 0
_cache_bytes = 0
_cache_max_bytes = 64 << 20


def _weigh(arr: np.ndarray) -> int:
    """Bytes ``arr`` keeps alive.  An object column's ``nbytes`` is only
    its pointers; add each *distinct* object once (a dictionary-decoded
    chunk shares one ``str`` per vocabulary entry)."""
    if arr.dtype != object:
        return arr.nbytes
    distinct = {id(x): x for x in arr.tolist()}
    return arr.nbytes + sum(map(sys.getsizeof, distinct.values()))


def cached_column(
    token: str, group: int, name: str, loader: Callable[[], np.ndarray]
) -> np.ndarray:
    """The decoded column for ``(token, group, name)``; decodes via
    ``loader`` on a miss and retains the (read-only) result if the
    admission rule (module docstring) lets it in."""
    global _cache_bytes, _accesses_since_aging
    key = (token, group, name)
    with _cache_lock:
        arr = _cache.get(key)
        if arr is not None:
            _cache.move_to_end(key)
        counts = _asked.get(token)
        if counts is None:
            counts = _asked[token] = {}
        asked_before = counts.get(key, 0)
        if asked_before < _ASKED_CAP:
            counts[key] = asked_before + 1
        _accesses_since_aging += 1
        if _accesses_since_aging >= max(
            _AGE_MIN_ACCESSES, _AGE_ACCESSES_PER_ENTRY * len(_cache)
        ):
            _accesses_since_aging = 0
            asked_before >>= 1  # compared below with halved counts
            for tok, old_counts in list(_asked.items()):
                halved = {k: c >> 1 for k, c in old_counts.items() if c > 1}
                if halved:
                    _asked[tok] = halved
                else:
                    del _asked[tok]
    if arr is not None:
        PERF.count("query.cache_hits")
        return arr
    PERF.count("query.cache_misses")
    arr = loader()
    arr.setflags(write=False)
    weight = _weigh(arr)
    evicted = 0
    rejected = False
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
        else:
            # The LRU victims the newcomer needs, or rejection: it must
            # have been asked for strictly more often than each of them
            # (a tie keeps the resident), and must fit the budget at all.
            excess = _cache_bytes + weight - _cache_max_bytes
            victims = []
            rejected = weight > _cache_max_bytes
            if not rejected:
                for old in _cache:
                    if excess <= 0:
                        break
                    if asked_before <= _asked.get(old[0], {}).get(old, 0):
                        rejected = True
                        break
                    victims.append(old)
                    excess -= _weights[old]
            if not rejected:
                for old in victims:
                    del _cache[old]
                    _cache_bytes -= _weights.pop(old)
                    _token_keys[old[0]].discard(old)
                    if not _token_keys[old[0]]:
                        del _token_keys[old[0]]
                evicted = len(victims)
                _cache[key] = arr
                _weights[key] = weight
                _cache_bytes += weight
                _token_keys.setdefault(token, set()).add(key)
    if evicted:
        PERF.count("query.cache_evictions", evicted)
    if rejected:
        PERF.count("query.cache_rejected")
    return arr


def invalidate_token(token: str) -> int:
    """Drop every cached group of one part (by content digest), and the
    part's ask counts.

    Returns the number of entries released.  Correctness never depends
    on this — digests are content-addressed — it only returns memory
    held for parts that compaction or retention just deleted.
    """
    global _cache_bytes
    with _cache_lock:
        stale = _token_keys.pop(token, ())
        for k in stale:
            del _cache[k]
            _cache_bytes -= _weights.pop(k)
        _asked.pop(token, None)
    return len(stale)


def clear_row_group_cache() -> None:
    """Empty the cache and forget every ask count (benchmark isolation)."""
    global _cache_bytes, _accesses_since_aging
    with _cache_lock:
        _cache.clear()
        _token_keys.clear()
        _weights.clear()
        _asked.clear()
        _accesses_since_aging = 0
        _cache_bytes = 0


def row_group_cache_stats() -> dict:
    """Occupancy of the cache and size of the ask-count map (counters
    live in the perf registry)."""
    with _cache_lock:
        return {
            "entries": len(_cache),
            "bytes": _cache_bytes,
            "max_bytes": _cache_max_bytes,
            "tracked": sum(map(len, _asked.values())),
        }


def set_row_group_cache_limit(max_bytes: int) -> None:
    """Resize the byte budget, evicting LRU entries to fit (a resize is
    not a request: no admission rule applies, ask counts are kept)."""
    global _cache_bytes, _cache_max_bytes
    if max_bytes <= 0:
        raise ValueError("max_bytes must be positive")
    evicted = 0
    with _cache_lock:
        _cache_max_bytes = max_bytes
        while _cache_bytes > _cache_max_bytes:
            old, _ = _cache.popitem(last=False)
            _cache_bytes -= _weights.pop(old)
            _token_keys[old[0]].discard(old)
            if not _token_keys[old[0]]:
                del _token_keys[old[0]]
            evicted += 1
    if evicted:
        PERF.count("query.cache_evictions", evicted)
