"""Bounded LRU cache of decoded row-group columns.

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

Order is plain LRU under a byte budget: a miss evicts the least
recently used entries until the newcomer fits, and an array larger than
the whole budget is returned uncached.  The budget is all the cache
guarantees — it never holds more than ``max_bytes`` — and the order
decides only what is *kept*; it can never change an answer.

Cached arrays are marked read-only and shared by reference: a masked
scan copies on fancy-indexing anyway, and a full-group projection hands
out the cached view directly (mutating query output was never supported
— now it raises instead of silently corrupting).

A *run* of small parts (DESIGN.md §11, "Runs") caches its concatenated
columns under a token of its own, derived from its members' digests,
and names those members when it asks: invalidating any member's token
releases the run's entries with the member's own, so deleting one part
of a run drops what was decoded from it either way.

Concurrency: one module-level lock guards the OrderedDict, its
per-token key index, the run membership and the byte budget;
hit/miss/evict/reject counters go to the process-wide perf registry.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.obs import METRICS

__all__ = [
    "load_column",
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
#: run token -> its members' tokens, and member token -> the run tokens
#: naming it: registered by a run's first ask, dropped when the run or
#: any member is invalidated.
_run_members: dict[str, tuple[str, ...]] = {}
_member_runs: dict[str, set[str]] = {}
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


def load_column(
    token: str,
    group: int,
    name: str,
    loader: Callable[[], np.ndarray | None],
    members: tuple[str, ...] = (),
) -> tuple[np.ndarray | None, bool]:
    """The decoded column for ``(token, group, name)`` and whether it
    was a hit: decoded via ``loader`` on a miss and retained (read-only)
    unless it is larger than the whole budget.  Hits are left to the
    caller to count (a scan adds its hits to ``query.cache_hits`` once
    per plan); misses, evictions and rejections are counted here, beside
    the decode they cost.

    ``members`` names the part tokens a run's ``token`` is made of
    (:func:`invalidate_token` of any of them releases it).  A loader
    that returns None has nothing to offer — a run whose members were
    not all fetched — and nothing is cached: the miss returns None."""
    global _cache_bytes
    key = (token, group, name)
    with _cache_lock:
        arr = _cache.get(key)
        if arr is not None:
            _cache.move_to_end(key)
        if members and token not in _run_members:
            # Inline, like all bookkeeping under the lock (CONC).
            _run_members[token] = members
            for member in members:
                _member_runs.setdefault(member, set()).add(token)
    if arr is not None:
        return arr, True
    arr = loader()
    if arr is None:
        return None, False
    METRICS.inc("query.cache_misses")
    arr.setflags(write=False)
    weight = _weigh(arr)
    evicted = 0
    rejected = False
    with _cache_lock:
        if key in _cache:
            _cache.move_to_end(key)
        elif weight > _cache_max_bytes:
            rejected = True
        else:
            _cache[key] = arr
            _weights[key] = weight
            _cache_bytes += weight
            _token_keys.setdefault(token, set()).add(key)
            # LRU victims until it fits; never the newcomer, the most
            # recent entry and no larger than the budget.
            while _cache_bytes > _cache_max_bytes:
                old, _ = _cache.popitem(last=False)
                _cache_bytes -= _weights.pop(old)
                _token_keys[old[0]].discard(old)
                if not _token_keys[old[0]]:
                    del _token_keys[old[0]]
                evicted += 1
    if evicted:
        METRICS.inc("query.cache_evictions", evicted)
    if rejected:
        METRICS.inc("query.cache_rejected")
    return arr, False


def invalidate_token(token: str) -> int:
    """Drop every cached group of one part (by content digest) — and
    those of every run the part is a member of (or, given a run's token,
    the run's own).

    Returns the number of entries released.  Correctness never depends
    on this — digests are content-addressed — it only returns memory
    held for parts that compaction or retention just deleted.
    """
    global _cache_bytes
    released = 0
    with _cache_lock:
        for tok in (token, *_member_runs.pop(token, ())):
            for member in _run_members.pop(tok, ()):
                runs = _member_runs.get(member)
                if runs is not None:
                    runs.discard(tok)
                    if not runs:
                        del _member_runs[member]
            stale = _token_keys.pop(tok, ())
            for k in stale:
                del _cache[k]
                _cache_bytes -= _weights.pop(k)
            released += len(stale)
    return released


def clear_row_group_cache() -> None:
    """Empty the cache (benchmark isolation)."""
    global _cache_bytes
    with _cache_lock:
        _cache.clear()
        _token_keys.clear()
        _weights.clear()
        _run_members.clear()
        _member_runs.clear()
        _cache_bytes = 0


def row_group_cache_stats() -> dict:
    """Occupancy of the cache (counters live in the perf registry)."""
    with _cache_lock:
        return {
            "entries": len(_cache),
            "bytes": _cache_bytes,
            "max_bytes": _cache_max_bytes,
        }


def set_row_group_cache_limit(max_bytes: int) -> None:
    """Resize the byte budget, evicting LRU entries to fit."""
    global _cache_bytes, _cache_max_bytes
    if not max_bytes > 0:  # refuses NaN too
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
        METRICS.inc("query.cache_evictions", evicted)
