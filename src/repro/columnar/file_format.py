"""The RCF on-disk format: row groups of encoded, compressed column chunks.

Layout (all integers little-endian)::

    magic "RCF2"
    u16 n_columns
    per column: u16 name_len, name utf-8, u8 is_string
    u32 n_row_groups
    group bodies, each:
        u64 n_rows
        per column (schema order):
            u8  encoding id      (encodings.py)
            u8  codec id         (compression.py)
            u8  stats flags      (bit0: stats present; bit1: inexact —
                                  NaN rows were skipped when computing
                                  the float min/max, so prunes that
                                  NaN rows could defeat must not fire)
            if stats present:
                if string column: u32 len, min utf-8, u32 len, max utf-8
                else:             f64 min, f64 max
            u64 payload_len
            payload bytes
    footer: per group, u64 absolute_offset + u64 n_rows
    u64 footer_start
    tail magic "RCF2"

The footer lets :class:`RcfReader` open a file in O(1) — group headers
are parsed lazily on first touch instead of sequentially on open — and
keeps every absolute offset out of the group bodies, so a body means
the same wherever it sits (:meth:`RcfWriter.append_encoded` copies
them between files).  Every chunk is self-contained: a DICTIONARY
chunk carries its own vocabulary, and nothing in a group points into
another.

One writer-side rule cuts encode cost without a reader round-trip, the
**cheap codec**: chunks ≤ 64 raw bytes are stored raw; larger chunks
are first gated by a cheap probe — a zlib pass over a 4 KiB prefix for
big chunks, a byte-histogram entropy estimate for mid-size ones — and
stored raw when the probe says zlib would not pay for itself
(already-compact numeric columns).  The rule is a pure function of
(content, codec) — never toggled by fast-path state — so baseline and
optimized runs write identical bytes.

Every column of a file has one dtype: :meth:`RcfWriter.append` refuses
a table whose dtypes differ from the first one's, as a Parquet schema
fixes each column's physical type for every row group.  A reader checks
the structure it walks — magics, footer, offsets, group headers, every
chunk's dtype tokens and every decoded chunk's length — and raises
:class:`RcfFormatError` where it does not hold; other payload bytes are
not checked.

Column projection works by *skipping* unneeded payloads (we know their
length without decoding); predicate pushdown works by testing each row
group's stats before touching its payloads.  Together these are the two
I/O savings the paper attributes to the Parquet/OCEAN design.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.columnar import encodings as _enc
from repro.columnar.compression import CODECS, codec_name, compress, decompress
from repro.columnar.encodings import (
    RcfFormatError,
    choose_encoding,
    decode_column,
    encode_column,
)
from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable

__all__ = [
    "RcfWriter",
    "RcfReader",
    "RcfFormatError",
    "write_table",
    "read_table",
    "column_stats",
    "chunk_memo_stats",
]

_MAGIC = b"RCF2"
#: Magic, column and group counts, footer_start and tail magic: the
#: bytes of a file with no columns and no groups.
_MIN_LEN = 22

# Cheap-codec thresholds (writer rule; see the module docstring).
_CHEAP_MIN_BYTES = 64
_CHEAP_SAMPLE_BYTES = 4096
_CHEAP_SKIP_RATIO = 0.9
#: Mid-size chunks (between the two thresholds above) skip zlib when
#: their byte entropy is at least this many bits/byte.  Empirical, not
#: information-theoretic: small high-entropy chunks never reached a
#: 0.9 ratio under zlib once the per-chunk header overhead is paid,
#: while genuinely compressible chunks measured far below 6 bits.
_CHEAP_ENTROPY_BITS = 6.0


def _round_trips(col: np.ndarray, encoding: int, raw: bytes) -> bool:
    """Whether ``raw`` (``col`` encoded as ``encoding``) decodes to
    ``col`` bit for bit.

    Integer and string encodings always do.  Float RLE and DICTIONARY
    group values by ``==``, so ``-0.0`` joins a run or entry of ``0.0``
    and NaN payloads merge; float DELTA rebuilds values by a running sum,
    which can miss the last bit of an irregular grid and turns every
    value after a NaN or an infinity into NaN.
    """
    if encoding == _enc.PLAIN or col.dtype.kind != "f":
        return True
    back = decode_column(raw, encoding)
    return back.tobytes() == np.ascontiguousarray(col).tobytes()


def _byte_entropy(raw: bytes) -> float:
    """Shannon entropy of the byte histogram, in bits per byte."""
    counts = np.bincount(np.frombuffer(raw, dtype=np.uint8))
    p = counts[counts > 0] / len(raw)
    return float(-(p * np.log2(p)).sum())


def chunk_memo_stats() -> dict:
    """Zero hit and miss counts: the writer keeps no chunk memo.  Kept
    because the full-path bench reads these counters by name."""
    return {"hits": 0, "misses": 0}


def column_stats(arr: np.ndarray) -> tuple[object, object, bool] | None:
    """``(min, max, exact)`` of a column, or None when undefined.

    ``exact`` means the bounds cover *every* row.  Float NaNs are
    skipped (one NaN sample must not disable pruning for the whole
    chunk) and flagged ``exact=False`` so predicates NaN rows can
    satisfy (``!=``, ``NOT(==)``) stay conservative; infinities are
    legitimate bounds and are kept.  Null strings participate as ``""``
    — exactly how :meth:`Compare.mask` evaluates them — so string
    bounds are always exact.
    """
    if arr.size == 0:
        return None
    if arr.dtype == object:
        present = ["" if x is None else x for x in arr.tolist()]
        return min(present), max(present), True
    if arr.dtype.kind == "f":
        nan = np.isnan(arr)
        if nan.any():
            valid = arr[~nan]
            if valid.size == 0:
                return None
            return float(valid.min()), float(valid.max()), False
        return float(arr.min()), float(arr.max()), True
    return float(arr.min()), float(arr.max()), True


class RcfWriter:
    """Streaming writer: append tables, then :meth:`finish` to get bytes.

    All appended tables must share the schema and the column dtypes of
    the first.
    """

    def __init__(self, codec: str = "fast", row_group_size: int = 65_536) -> None:
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}")
        if row_group_size <= 0:
            raise ValueError("row_group_size must be positive")
        self.codec = codec
        self.row_group_size = row_group_size
        self._schema: list[tuple[str, bool]] | None = None
        self._dtypes: list[np.dtype] | None = None
        self._groups: list[bytes] = []
        self._group_rows: list[int] = []
        self._n_rows = 0

    def append(self, table: ColumnTable) -> None:
        """Add a table's rows, splitting into row groups as needed."""
        if table.num_rows == 0:
            return
        schema = [(n, table.is_string(n)) for n in table.column_names]
        if self._schema is None:
            self._schema = schema
        elif schema != self._schema:
            raise ValueError(
                f"schema mismatch: {schema} != {self._schema}"
            )
        dtypes = [c.dtype for c in table.columns().values()]
        if self._dtypes is None:
            self._dtypes = dtypes
        elif dtypes != self._dtypes:
            raise ValueError(f"dtype mismatch: {dtypes} != {self._dtypes}")
        for start in range(0, table.num_rows, self.row_group_size):
            chunk = table.slice(start, start + self.row_group_size)
            self._groups.append(self._encode_group(chunk))
            self._group_rows.append(chunk.num_rows)
            self._n_rows += chunk.num_rows

    def append_encoded(self, reader: "RcfReader", limit: int) -> int:
        """Open this (still empty) file with up to ``limit`` of
        ``reader``'s leading row groups, copied as they are; returns
        how many were.

        A group is copied when encoding its rows again would write the
        same bytes: it is full (so the next group starts where this
        writer would start it), and was written under this codec — a
        body holds no file offset and points into no other group.
        """
        if self._groups:
            raise ValueError("encoded groups can only open a file")
        codecs = {"none", self.codec}
        n = 0
        while (
            n < min(limit, reader.num_row_groups)
            and reader.group_row_count(n) == self.row_group_size
            and all(c.codec in codecs for c in reader._group(n).chunks.values())
        ):
            n += 1
        if n == 0:
            return 0
        self._schema = list(reader.schema)
        self._groups = [reader.group_bytes(g) for g in range(n)]
        self._group_rows = [self.row_group_size] * n
        self._n_rows = n * self.row_group_size
        return n

    def _frame_payload(self, raw: bytes) -> tuple[bytes, str]:
        """``(payload, codec actually used)`` under the cheap-codec rule:
        tiny chunks, and chunks whose sampled prefix barely compresses
        (already-compact numeric columns), are stored raw — skipping
        zlib entirely.  A pure function of (raw, codec), so baseline and
        fast runs frame identical bytes.
        """
        if len(raw) <= _CHEAP_MIN_BYTES:
            return raw, "none"
        if len(raw) > _CHEAP_SAMPLE_BYTES:
            sample = raw[:_CHEAP_SAMPLE_BYTES]
            if (
                len(compress(sample, self.codec))
                >= _CHEAP_SKIP_RATIO * len(sample)
            ):
                return raw, "none"
        elif _byte_entropy(raw) >= _CHEAP_ENTROPY_BITS:
            return raw, "none"
        payload = compress(raw, self.codec)
        # Keep whichever is smaller; record the codec actually used.
        if len(payload) >= len(raw):
            return raw, "none"
        return payload, self.codec

    def _encode_group(self, chunk: ColumnTable) -> bytes:
        parts = [struct.pack("<Q", chunk.num_rows)]
        for name, is_string in self._schema or []:
            col = chunk[name]
            encoding = choose_encoding(col)
            raw = encode_column(col, encoding)
            if not _round_trips(col, encoding, raw):
                encoding, raw = _enc.PLAIN, encode_column(col, _enc.PLAIN)
            payload, codec = self._frame_payload(raw)
            stats = column_stats(col)
            flags = 0
            if stats is not None:
                flags = 1 if stats[2] else 3  # bit0 present, bit1 inexact
            parts.append(struct.pack("<BBB", encoding, CODECS[codec], flags))
            if stats is not None:
                lo, hi, _exact = stats
                if is_string:
                    lo_b = str(lo).encode("utf-8")
                    hi_b = str(hi).encode("utf-8")
                    parts.append(struct.pack("<I", len(lo_b)) + lo_b)
                    parts.append(struct.pack("<I", len(hi_b)) + hi_b)
                else:
                    parts.append(struct.pack("<dd", float(lo), float(hi)))
            parts.append(struct.pack("<Q", len(payload)))
            parts.append(payload)
        return b"".join(parts)

    @property
    def num_rows(self) -> int:
        """Rows appended so far."""
        return self._n_rows

    def finish(self) -> bytes:
        """Serialize everything appended into one RCF byte string."""
        schema = self._schema or []
        parts = [_MAGIC, struct.pack("<H", len(schema))]
        for name, is_string in schema:
            nb = name.encode("utf-8")
            parts.append(struct.pack("<H", len(nb)) + nb)
            parts.append(struct.pack("<B", 1 if is_string else 0))
        parts.append(struct.pack("<I", len(self._groups)))
        off = sum(len(p) for p in parts)
        footer: list[bytes] = []
        for body, n_rows in zip(self._groups, self._group_rows):
            footer.append(struct.pack("<QQ", off, n_rows))
            parts.append(body)
            off += len(body)
        parts.extend(footer)
        parts.append(struct.pack("<Q", off))  # footer_start
        parts.append(_MAGIC)
        return b"".join(parts)


@dataclass
class _ChunkMeta:
    encoding: int
    codec: str
    stats: tuple[object, object] | None
    payload_offset: int
    payload_len: int
    #: What :meth:`RcfReader.raw_view` hands out for this chunk, made on
    #: the first ask (None until then, and for every other chunk).
    view: np.ndarray | None = None


@dataclass
class _GroupMeta:
    n_rows: int
    chunks: dict[str, _ChunkMeta]
    #: Column -> the chunk's stats, built with the header and handed out
    #: read-only by :meth:`RcfReader.group_stats`.
    stats: Mapping[str, tuple | None]


class RcfReader:
    """Reader with column projection and stats-based row-group pruning.

    Opens in O(1) by reading the footer; each group header is parsed
    lazily the first time that group is touched.  Structure that does
    not hold raises :class:`RcfFormatError` at the step that walks it.

    A reader holds no scan state — only the buffer, the parsed footer
    and headers (with each raw chunk's view), and the lazily computed
    digest — so one instance can serve any number of scans of the same
    bytes (the tier store keeps one per live part, see DESIGN.md §15
    "The part table").
    """

    def __init__(self, buf: bytes) -> None:
        if buf[:4] != _MAGIC:
            raise RcfFormatError("not an RCF buffer (bad magic)")
        if len(buf) < _MIN_LEN or buf[-4:] != _MAGIC:
            raise RcfFormatError("truncated RCF buffer (bad tail magic)")
        self._buf = buf
        #: Group headers parsed so far — the probe the O(1)-open
        #: regression test watches.
        self.header_parse_count = 0
        self.schema: list[tuple[str, bool]] = []
        try:
            off = 4
            (n_cols,) = struct.unpack_from("<H", buf, off)
            off += 2
            for _ in range(n_cols):
                (name_len,) = struct.unpack_from("<H", buf, off)
                off += 2
                name = buf[off : off + name_len].decode("utf-8")
                off += name_len
                (is_string,) = struct.unpack_from("<B", buf, off)
                off += 1
                self.schema.append((name, bool(is_string)))
            (n_groups,) = struct.unpack_from("<I", buf, off)
            off += 4
        except (struct.error, UnicodeDecodeError) as exc:
            raise RcfFormatError(f"damaged RCF schema: {exc}") from exc
        (footer_start,) = struct.unpack_from("<Q", buf, len(buf) - 12)
        if not off <= footer_start == len(buf) - 12 - 16 * n_groups:
            raise RcfFormatError("RCF footer does not fit the buffer")
        self._is_string = dict(self.schema)
        #: The schema's column names, for projection checks.
        self.column_set = frozenset(self._is_string)
        self._digest: str | None = None
        self._metas: list[_GroupMeta | None] = [None] * n_groups
        offsets: list[int] = []
        rows: list[int] = []
        prev = off - 1  # group 0 starts at or after the schema's end
        for pos in range(footer_start, footer_start + 16 * n_groups, 16):
            o, r = struct.unpack_from("<QQ", buf, pos)
            if not prev < o < footer_start:
                raise RcfFormatError(f"RCF group offset {o} out of order")
            offsets.append(o)
            rows.append(int(r))
            prev = o
        #: Each group's first byte, then the footer's.
        self._group_offsets = offsets + [footer_start]
        self._group_rows = rows
        self._num_rows = sum(rows)

    def _parse_group(self, i: int) -> _GroupMeta:
        buf = self._buf
        off, end = self._group_offsets[i], self._group_offsets[i + 1]
        self.header_parse_count += 1
        chunks: dict[str, _ChunkMeta] = {}
        try:
            (n_rows,) = struct.unpack_from("<Q", buf, off)
            off += 8
            if n_rows != self._group_rows[i]:
                raise RcfFormatError(
                    f"row group {i} holds {n_rows} rows, its footer says "
                    f"{self._group_rows[i]}"
                )
            for name, is_string in self.schema:
                encoding, codec_id, flags = struct.unpack_from("<BBB", buf, off)
                off += 3
                if encoding > _enc.DICTIONARY or codec_id >= len(CODECS) or flags > 3:
                    raise RcfFormatError(
                        f"row group {i}, column {name!r}: unknown encoding "
                        f"{encoding}, codec {codec_id} or flags {flags}"
                    )
                stats = None
                if flags & 1:
                    if is_string:
                        (lo_len,) = struct.unpack_from("<I", buf, off)
                        off += 4
                        lo = buf[off : off + lo_len].decode("utf-8")
                        off += lo_len
                        (hi_len,) = struct.unpack_from("<I", buf, off)
                        off += 4
                        hi = buf[off : off + hi_len].decode("utf-8")
                        off += hi_len
                        stats = (lo, hi)
                    else:
                        lo, hi = struct.unpack_from("<dd", buf, off)
                        off += 16
                        stats = (lo, hi)
                    if flags & 2:
                        stats = (*stats, False)  # inexact: NaN rows excluded
                (payload_len,) = struct.unpack_from("<Q", buf, off)
                off += 8
                chunks[name] = _ChunkMeta(
                    encoding, codec_name(codec_id), stats, off, payload_len
                )
                off += payload_len
        except (struct.error, UnicodeDecodeError) as exc:
            raise RcfFormatError(f"damaged header of row group {i}: {exc}") from exc
        # ``off`` only grows, so this also keeps every payload inside
        # the group.
        if off != end:
            raise RcfFormatError(
                f"row group {i} does not end where the next one starts"
            )
        stats = MappingProxyType({n: c.stats for n, c in chunks.items()})
        return _GroupMeta(n_rows, chunks, stats)

    def _group(self, i: int) -> _GroupMeta:
        """Group metadata, parsed on first touch."""
        meta = self._metas[i]
        if meta is None:
            meta = self._metas[i] = self._parse_group(i)
        return meta

    @property
    def num_row_groups(self) -> int:
        """Row groups in the file."""
        return len(self._metas)

    @property
    def buffer(self) -> bytes:
        """The bytes this reader was opened on."""
        return self._buf

    @property
    def num_rows(self) -> int:
        """Total rows in the file."""
        return self._num_rows

    def column_names(self) -> list[str]:
        """Schema column names in order."""
        return [n for n, _ in self.schema]

    def group_stats(self, group: int) -> Mapping[str, tuple | None]:
        """Per-column (min, max) stats of one row group — a read-only
        mapping built once with the group's header and shared by every
        caller."""
        return self._group(group).stats

    def group_row_count(self, group: int) -> int:
        """Rows in one row group."""
        return self._group_rows[group]

    def group_encoding(self, group: int, name: str) -> int:
        """Encoding id of one chunk (see :mod:`repro.columnar.encodings`)."""
        return self._group(group).chunks[name].encoding

    def decode_group_column(self, group: int, name: str) -> np.ndarray:
        """Decode exactly one chunk into an aligned array that owns its
        data — the late-materialization entry point: the scan executor
        decodes predicate columns first and calls back here only for
        groups that survive."""
        meta = self._group(group).chunks[name]
        raw = decompress(self._payload(meta), meta.codec)
        if meta.encoding == _enc.PLAIN:
            self._plain_dtype(raw[:8], len(raw) - 8, group, name)
        arr = decode_column(raw, meta.encoding)
        if arr.size != self._group_rows[group]:
            raise RcfFormatError(
                f"row group {group}, column {name!r}: {arr.size} values "
                f"decoded, the group holds {self._group_rows[group]} rows"
            )
        return arr

    def raw_view(self, group: int, name: str) -> np.ndarray | None:
        """A read-only view of one chunk's values inside :attr:`buffer`,
        or None unless the chunk is PLAIN and stored raw (codec
        ``none``) — so of a fixed-width numeric or bool dtype.

        Such a chunk's decode is only a copy, so scans read it in place
        instead.  The view is made once per chunk and kept with the
        chunk's parsed header; it is unaligned and keeps the whole buffer
        alive, so everything that keeps or rewrites rows uses the owning
        :meth:`decode_group_column`.
        """
        meta = self._group(group).chunks[name]
        if meta.view is not None:
            return meta.view
        if meta.encoding != _enc.PLAIN or meta.codec != "none":
            return None
        off = meta.payload_offset
        dtype = self._plain_dtype(
            self._buf[off : off + 8], meta.payload_len - 8, group, name
        )
        view = np.frombuffer(
            self._buf, dtype=dtype, count=self._group_rows[group], offset=off + 8
        )
        view.setflags(write=False)
        meta.view = view
        return view

    def group_bytes(self, group: int) -> bytes:
        """One row group's encoded body as it sits in the file."""
        return self._buf[
            self._group_offsets[group] : self._group_offsets[group + 1]
        ]

    def read_group(self, group: int) -> ColumnTable:
        """Every column of one row group — what a streaming rewrite
        pulls so that it never holds more than a group of an input."""
        return ColumnTable(
            {n: self.decode_group_column(group, n) for n, _ in self.schema}
        )

    def digest(self) -> str:
        """Stable content digest of the whole buffer — the cache token
        the decoded-row-group cache keys on (computed once, lazily)."""
        if self._digest is None:
            self._digest = hashlib.blake2b(
                self._buf, digest_size=16
            ).hexdigest()
        return self._digest

    def _plain_dtype(
        self, token: bytes | memoryview, extent: int, group: int, name: str
    ) -> np.dtype:
        """The dtype a PLAIN chunk's token names, checked against the
        ``extent`` bytes of values that follow it: RcfFormatError unless
        it is a fixed-width numeric or bool dtype — the only kind the
        writer stores PLAIN — filling exactly the group's rows."""
        dtype = _enc._DTYPES.get(bytes(token))
        if dtype is None or dtype.itemsize * self._group_rows[group] != extent:
            raise RcfFormatError(
                f"row group {group}, column {name!r}: PLAIN dtype token "
                f"{bytes(token)!r} does not fit {extent} bytes of "
                f"{self._group_rows[group]} rows"
            )
        return dtype

    def _payload(self, meta: _ChunkMeta) -> memoryview:
        """One chunk's payload, not copied: the decoders copy out of it
        (once) into arrays of their own."""
        return memoryview(self._buf)[
            meta.payload_offset : meta.payload_offset + meta.payload_len
        ]

    def read(
        self,
        columns: list[str] | None = None,
        predicate: Predicate | None = None,
    ) -> ColumnTable:
        """Materialize (a projection of) the file, applying ``predicate``.

        Row groups whose statistics rule out the predicate are skipped
        without decompressing any payload.  Surviving groups are decoded
        (predicate columns first) and filtered exactly.
        """
        out_cols = columns if columns is not None else self.column_names()
        unknown = set(out_cols) - self.column_set
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        need = set(out_cols)
        if predicate is not None:
            need |= predicate.columns()

        pieces: list[ColumnTable] = []
        for gi in range(len(self._metas)):
            if predicate is not None:
                if not predicate.might_match(self.group_stats(gi)):
                    continue  # pruned — zero decode cost
            data = {
                n: self.decode_group_column(gi, n)
                for n in self.column_names()
                if n in need
            }
            table = ColumnTable(data)
            if predicate is not None:
                table = table.filter(predicate.mask(table))
            pieces.append(table.select(out_cols))
        if not pieces:
            return ColumnTable({n: np.empty(0) for n in out_cols})
        return ColumnTable.concat(pieces)


def write_table(
    table: ColumnTable, codec: str = "fast", row_group_size: int = 65_536
) -> bytes:
    """One-shot table -> RCF bytes."""
    writer = RcfWriter(codec=codec, row_group_size=row_group_size)
    writer.append(table)
    return writer.finish()


def read_table(
    buf: bytes,
    columns: list[str] | None = None,
    predicate: Predicate | None = None,
) -> ColumnTable:
    """One-shot RCF bytes -> table."""
    return RcfReader(buf).read(columns=columns, predicate=predicate)
