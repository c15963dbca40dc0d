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

import zlib

__all__ = ["CODECS", "compress", "decompress"]

_NONE = "none"
_FAST = "fast"
_HIGH = "high"

#: Codec name -> codec id used on disk.
CODECS: dict[str, int] = {_NONE: 0, _FAST: 1, _HIGH: 2}
_BY_ID = {v: k for k, v in CODECS.items()}
_LEVELS = {_FAST: 1, _HIGH: 6}


def compress(buf: bytes, codec: str) -> bytes:
    """Compress ``buf`` with the named codec."""
    if codec == _NONE:
        return buf
    try:
        level = _LEVELS[codec]
    except KeyError:
        raise ValueError(f"unknown codec {codec!r}; know {sorted(CODECS)}") from None
    return zlib.compress(buf, level)


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
