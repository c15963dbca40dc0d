"""Byte-level compression codecs.

Applied after encoding, per column chunk.  Offline constraints (zlib is
the only codec in the standard library) map onto the roles the paper's
stack assigns to codecs:

* ``"none"``  — for chunks where the encoding already removed redundancy,
* ``"fast"``  — zlib level 1, the Snappy/LZ4 role (hot pipeline path),
* ``"high"``  — zlib level 6, the ZSTD-archive role (OCEAN/GLACIER).

``"high"`` sits at zlib's default level rather than 9: on the BRONZE
archive chunks the e2e bench writes, level 9 spends ~8x the CPU of
level 6 to shave ~8% more — a poor trade on the ingest-critical path.
"""

from __future__ import annotations

import hashlib
import threading
import zlib
from collections import OrderedDict

from repro.perf import baseline

__all__ = [
    "CODECS",
    "compress",
    "decompress",
    "compress_memo_stats",
    "clear_compress_memo",
]

_NONE = "none"
_FAST = "fast"
_HIGH = "high"

#: Codec name -> codec id used on disk.
CODECS: dict[str, int] = {_NONE: 0, _FAST: 1, _HIGH: 2}
_BY_ID = {v: k for k, v in CODECS.items()}
_LEVELS = {_FAST: 1, _HIGH: 6}


# -- compress memo ------------------------------------------------------------
#
# zlib dominates the ingest wall clock, and the stream carries repeated
# chunks (constant id columns, regular timestamp grids) whose encoded
# bytes recur window after window.  ``compress`` is a pure function of
# (bytes, codec), so memoizing by content digest returns byte-identical
# output.  The cache is bounded by total stored bytes, LRU-evicted.

_memo_lock = threading.Lock()
_memo: "OrderedDict[tuple, bytes]" = OrderedDict()
_memo_bytes = 0
_memo_max_bytes = 32 << 20
_memo_hits = 0
_memo_misses = 0


def compress_memo_stats() -> dict:
    """Occupancy and hit/miss counters of the compress memo."""
    with _memo_lock:
        return {
            "entries": len(_memo),
            "bytes": _memo_bytes,
            "max_bytes": _memo_max_bytes,
            "hits": _memo_hits,
            "misses": _memo_misses,
        }


def clear_compress_memo() -> None:
    """Drop all memoized compressions and reset counters."""
    global _memo_bytes, _memo_hits, _memo_misses
    with _memo_lock:
        _memo.clear()
        _memo_bytes = 0
        _memo_hits = 0
        _memo_misses = 0


def _compress_raw(buf: bytes, codec: str) -> bytes:
    """Codec dispatch with no memo — for callers managing their own cache."""
    if codec == _NONE:
        return buf
    try:
        level = _LEVELS[codec]
    except KeyError:
        raise ValueError(f"unknown codec {codec!r}; know {sorted(CODECS)}") from None
    return zlib.compress(buf, level)


def compress(buf: bytes, codec: str) -> bytes:
    """Compress ``buf`` with the named codec (memoized, except under
    ``baseline_mode()``)."""
    global _memo_bytes, _memo_hits, _memo_misses
    if codec == _NONE:
        return buf
    try:
        level = _LEVELS[codec]
    except KeyError:
        raise ValueError(f"unknown codec {codec!r}; know {sorted(CODECS)}") from None
    if baseline.active():
        return zlib.compress(buf, level)
    key = (codec, len(buf), hashlib.blake2b(buf, digest_size=16).digest())
    with _memo_lock:
        hit = _memo.get(key)
        if hit is not None:
            _memo_hits += 1
            _memo.move_to_end(key)
            return hit
        _memo_misses += 1
    out = zlib.compress(buf, level)
    with _memo_lock:
        if key not in _memo:
            _memo[key] = out
            _memo_bytes += len(out)
        _memo.move_to_end(key)
        while _memo_bytes > _memo_max_bytes and len(_memo) > 1:
            _, dropped = _memo.popitem(last=False)
            _memo_bytes -= len(dropped)
    return out


def decompress(buf: bytes, codec: str) -> bytes:
    """Invert :func:`compress`."""
    if codec == _NONE:
        return buf
    if codec not in _LEVELS:
        raise ValueError(f"unknown codec {codec!r}; know {sorted(CODECS)}")
    return zlib.decompress(buf)


def codec_name(codec_id: int) -> str:
    """Codec name for an on-disk codec id."""
    return _BY_ID[codec_id]
