"""Per-column encodings.

Telemetry columns are extremely compressible *if* the encoding matches the
column's structure — the observation behind the paper's Parquet choice:

* timestamps on a regular grid      -> DELTA (constant deltas, ~zero entropy)
* sensor/component id columns       -> RLE (long runs after sorting)
* low-cardinality strings           -> DICTIONARY
* noisy float values                -> PLAIN (then byte-level codec)

Each encoding maps a 1-D array to bytes and back.  ``choose_encoding``
estimates encoded sizes cheaply and picks the smallest — the same
cost-based selection Parquet writers perform.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.perf import baseline

__all__ = [
    "PLAIN",
    "RLE",
    "DELTA",
    "DICTIONARY",
    "encode_column",
    "decode_column",
    "choose_encoding",
    "choose_encoding_reference",
]

PLAIN = 0
RLE = 1
DELTA = 2
DICTIONARY = 3

_ENCODING_NAMES = {PLAIN: "plain", RLE: "rle", DELTA: "delta", DICTIONARY: "dict"}


class RcfFormatError(ValueError):
    """Bytes that are not an RCF file the writer could have made: a bad
    magic, a header or footer that does not fit the buffer, offsets out
    of order, a group header that disagrees with the footer or its own
    extent, a dtype token the writer never writes, or a chunk that does
    not hold its group's rows.  Raised on open, when a group header is
    first parsed, or when a chunk is decoded or viewed.  Defined here,
    beside the decoders that parse the tokens, and exported by
    :mod:`repro.columnar.file_format`."""


def _dtype_token(dtype: np.dtype) -> bytes:
    token = dtype.str.encode("ascii")
    if len(token) > 8:
        raise ValueError(f"dtype token too long: {token!r}")
    return token.ljust(8, b" ")


#: Each dtype token a chunk can carry, and the dtype it names: the
#: fixed-width numeric and bool dtypes, in either byte order.
_DTYPES = {
    _dtype_token(d): d
    for d in (
        np.dtype(c).newbyteorder(order) for c in "?bBhHiIlLqQefdg" for order in "<>"
    )
}


def _parse_dtype(token: bytes | memoryview) -> np.dtype:
    """The dtype a stored token names: RcfFormatError unless it is one
    the writer writes, so ``np.dtype`` never parses damaged bytes."""
    dtype = _DTYPES.get(bytes(token))
    if dtype is None:
        raise RcfFormatError(f"dtype token {bytes(token)!r} names no stored dtype")
    return dtype


def _encode_plain(arr: np.ndarray) -> bytes:
    return _dtype_token(arr.dtype) + np.ascontiguousarray(arr).tobytes()


def _decode_plain(buf: bytes | memoryview) -> np.ndarray:
    # One copy, into a fresh (aligned, owned) array: ``buf`` may be a
    # memoryview into a whole part.
    return np.frombuffer(buf, dtype=_parse_dtype(buf[:8]), offset=8).copy()


def _run_lengths(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, run_lengths) for consecutive equal elements."""
    if arr.size == 0:
        return arr[:0], np.empty(0, dtype=np.int64)
    if arr.dtype.kind == "f":
        # Treat NaN as equal to NaN so runs of NaN compress.
        same = (arr[1:] == arr[:-1]) | (np.isnan(arr[1:]) & np.isnan(arr[:-1]))
    else:
        same = arr[1:] == arr[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    lengths = np.diff(np.concatenate((starts, [arr.size])))
    return arr[starts], lengths


def _encode_rle(arr: np.ndarray) -> bytes:
    values, lengths = _run_lengths(arr)
    header = _dtype_token(arr.dtype) + struct.pack("<q", values.size)
    return (
        header
        + lengths.astype(np.int64).tobytes()
        + np.ascontiguousarray(values).tobytes()
    )


def _decode_rle(buf: bytes) -> np.ndarray:
    dtype = _parse_dtype(buf[:8])
    (n_runs,) = struct.unpack_from("<q", buf, 8)
    off = 16
    lengths = np.frombuffer(buf, dtype=np.int64, count=n_runs, offset=off)
    off += n_runs * 8
    values = np.frombuffer(buf, dtype=dtype, count=n_runs, offset=off)
    return np.repeat(values, lengths)


def _encode_delta(arr: np.ndarray) -> bytes:
    """First value verbatim + deltas; deltas themselves RLE-compressed.

    Regular timestamp grids become a single run.
    Only defined for integer and float arrays.
    """
    if arr.size == 0:
        return _dtype_token(arr.dtype) + struct.pack("<q", 0)
    work = arr.astype(np.float64) if arr.dtype.kind == "f" else arr.astype(np.int64)
    deltas = np.diff(work)
    head = _dtype_token(arr.dtype) + struct.pack("<q", arr.size)
    first = np.asarray([work[0]]).tobytes()
    return head + first + _encode_rle(deltas)


def _decode_delta(buf: bytes) -> np.ndarray:
    dtype = _parse_dtype(buf[:8])
    (n,) = struct.unpack_from("<q", buf, 8)
    if n == 0:
        return np.empty(0, dtype=dtype)
    work_dtype = np.float64 if dtype.kind == "f" else np.int64
    first = np.frombuffer(buf, dtype=work_dtype, count=1, offset=16)[0]
    deltas = _decode_rle(buf[24:])
    out = np.empty(n, dtype=work_dtype)
    out[0] = first
    if n > 1:
        np.cumsum(deltas, out=out[1:])
        out[1:] += first
    return out.astype(dtype)


def _encode_dictionary(arr: np.ndarray) -> bytes:
    """Unique-value vocabulary + int32 codes; the string-column encoding.

    ``None`` entries map to code -1.
    """
    if arr.dtype == object:
        # Pure-Python vocab build: numpy's fixed-width unicode dtype strips
        # trailing NULs, silently corrupting values through np.unique.
        items = arr.tolist()
        strings = ["" if x is None else str(x) for x in items]
        uniq = sorted(set(strings))
        index = {s: i for i, s in enumerate(uniq)}
        codes = np.fromiter(
            (-1 if x is None else index[str(x)] for x in items),
            dtype=np.int32,
            count=len(items),
        )
        # Length-prefixed vocabulary entries (strings may contain any byte).
        vocab_blob = b"".join(
            struct.pack("<I", len(enc)) + enc
            for enc in (s.encode("utf-8") for s in uniq)
        )
        header = struct.pack("<qq", len(uniq), len(vocab_blob))
        return b"S" + header + vocab_blob + codes.tobytes()
    uniq, codes = np.unique(arr, return_inverse=True)
    header = _dtype_token(arr.dtype) + struct.pack("<q", uniq.size)
    return (
        b"N"
        + header
        + np.ascontiguousarray(uniq).tobytes()
        + codes.astype(np.int32).tobytes()
    )


def _decode_dictionary(buf: bytes) -> np.ndarray:
    kind = buf[:1]
    if kind == b"S":
        n_vocab, blob_len = struct.unpack_from("<qq", buf, 1)
        off = 17
        vocab = []
        pos = off
        for _ in range(n_vocab):
            (slen,) = struct.unpack_from("<I", buf, pos)
            pos += 4
            vocab.append(str(buf[pos : pos + slen], "utf-8"))
            pos += slen
        codes = np.frombuffer(buf, dtype=np.int32, offset=off + blob_len)
        out = np.empty(codes.size, dtype=object)
        nulls = codes < 0
        safe = np.where(nulls, 0, codes)
        if vocab:
            out[:] = [vocab[c] for c in safe.tolist()]
        out[nulls] = None
        return out
    dtype = _parse_dtype(buf[1:9])
    (n_vocab,) = struct.unpack_from("<q", buf, 9)
    off = 17
    uniq = np.frombuffer(buf, dtype=dtype, count=n_vocab, offset=off)
    codes = np.frombuffer(buf, dtype=np.int32, offset=off + uniq.nbytes)
    return uniq[codes]


_ENCODERS = {
    PLAIN: _encode_plain,
    RLE: _encode_rle,
    DELTA: _encode_delta,
    DICTIONARY: _encode_dictionary,
}
_DECODERS = {
    PLAIN: _decode_plain,
    RLE: _decode_rle,
    DELTA: _decode_delta,
    DICTIONARY: _decode_dictionary,
}


def encode_column(arr: np.ndarray, encoding: int) -> bytes:
    """Encode a 1-D array with the given encoding id."""
    if arr.dtype == object and encoding != DICTIONARY:
        raise ValueError("string columns must use DICTIONARY encoding")
    try:
        return _ENCODERS[encoding](arr)
    except KeyError:
        raise ValueError(f"unknown encoding {encoding}") from None


def decode_column(buf: bytes | memoryview, encoding: int) -> np.ndarray:
    """Invert :func:`encode_column` into an array that owns its data
    (``buf`` may be a memoryview into a larger buffer)."""
    try:
        return _DECODERS[encoding](buf)
    except KeyError:
        raise ValueError(f"unknown encoding {encoding}") from None


def _run_count(arr: np.ndarray) -> int:
    """Number of consecutive-equal runs, without materializing them.

    Counts exactly ``_run_lengths(arr)[0].size`` (NaN==NaN, as there)
    but only ever allocates one boolean mask.
    """
    if arr.size == 0:
        return 0
    same_count = int(np.count_nonzero(arr[1:] == arr[:-1]))
    if arr.dtype.kind == "f" and np.isnan(arr.min()):
        # min() propagates NaN, so this reduction doubles as an
        # any-NaN probe.  NaN != NaN, so the equality count above
        # missed exactly the NaN-NaN neighbour pairs; add them back.
        nan = np.isnan(arr)
        same_count += int(np.count_nonzero(nan[1:] & nan[:-1]))
    return int(arr.size - same_count)


def choose_encoding(arr: np.ndarray) -> int:
    """Pick the cheapest encoding for ``arr`` via cheap size estimates.

    Makes the choice :func:`choose_encoding_reference` makes, for less:
    the candidate costs depend only on *counts* (runs, delta runs,
    uniques), so runs are counted rather than materialized, and the
    unique scan — the priciest probe — is skipped whenever DICTIONARY's
    best-case cost (a single vocab entry) already loses.  On a tie the
    reference prefers the lower encoding id, so an equal-cost skip can
    never change the outcome.  Under ``baseline_mode()`` every call is
    the reference estimator.
    """
    if baseline.active():
        return choose_encoding_reference(arr)
    if arr.dtype == object:
        return DICTIONARY
    if arr.size == 0:
        return PLAIN
    n = arr.size
    item = arr.dtype.itemsize
    plain_cost = n * item
    rle_cost = _run_count(arr) * (item + 8) + 24

    costs = {PLAIN: plain_cost, RLE: rle_cost}

    if arr.dtype.kind in "if":
        if n > 1:
            # _encode_delta widens to float64/int64 before differencing;
            # np.diff's result is identical without the copy when the
            # dtype is already the wide one.
            wide = np.float64 if arr.dtype.kind == "f" else np.int64
            work = arr if arr.dtype == wide else arr.astype(wide)
            d_runs = _run_count(np.diff(work))
        else:
            d_runs = 0
        costs[DELTA] = d_runs * 16 + 48

    best = min(costs, key=lambda k: (costs[k], k))
    if item + n * 4 + 24 < costs[best]:
        n_uniq = _bounded_unique_count(arr, max(n // 4, 1))
        if n_uniq is not None:
            costs[DICTIONARY] = n_uniq * item + n * 4 + 24
            best = min(costs, key=lambda k: (costs[k], k))
    return best


def _bounded_unique_count(arr: np.ndarray, threshold: int) -> int | None:
    """Exact distinct count when ``<= threshold``, else ``None``.

    The reference estimator only uses the count when it is at most
    ``threshold`` (DICTIONARY is otherwise out), so exceeding the bound
    can be proven without the full sort: narrow-range integers count
    bucket occupancy in O(n + range); everything else first probes a
    ``threshold + 1``-element prefix — if all its values are distinct,
    the whole column has more than ``threshold`` distinct values by
    containment, and the O(n log n) unique scan is skipped.
    """
    n = arr.size
    if arr.dtype.kind in "iu":
        mn = int(arr.min())
        mx = int(arr.max())
        span = mx - mn + 1
        if span <= max(4 * n, 1024) and -(2**62) < mn and mx < 2**62:
            shifted = arr.astype(np.int64)
            shifted -= mn
            occupied = np.zeros(span, dtype=bool)
            occupied[shifted] = True
            count = int(np.count_nonzero(occupied))
            return count if count <= threshold else None
    if threshold + 1 < n:
        if np.unique(arr[: threshold + 1]).size > threshold:
            return None
    count = int(np.unique(arr).size)
    return count if count <= threshold else None


def choose_encoding_reference(arr: np.ndarray) -> int:
    """The original walk-the-column estimator, kept as the equivalence
    oracle and benchmark baseline for :func:`choose_encoding`.

    Materializes run values via :func:`_run_lengths` and always runs the
    unique scan, exactly as the pre-optimization implementation did.
    """
    if arr.dtype == object:
        return DICTIONARY
    if arr.size == 0:
        return PLAIN

    n = arr.size
    item = arr.dtype.itemsize
    plain_cost = n * item

    values, _ = _run_lengths(arr)
    rle_cost = values.size * (item + 8) + 24

    costs = {PLAIN: plain_cost, RLE: rle_cost}

    if arr.dtype.kind in "if":
        work = (
            arr.astype(np.float64) if arr.dtype.kind == "f" else arr.astype(np.int64)
        )
        dv, _ = _run_lengths(np.diff(work)) if n > 1 else (work[:0], None)
        costs[DELTA] = (dv.size if n > 1 else 0) * 16 + 48

    n_uniq = np.unique(arr).size
    if n_uniq <= max(n // 4, 1):
        costs[DICTIONARY] = n_uniq * item + n * 4 + 24

    return min(costs, key=lambda k: (costs[k], k))


def encoding_name(encoding: int) -> str:
    """Human-readable encoding name."""
    return _ENCODING_NAMES[encoding]
