"""The RCF on-disk format: row groups of encoded, compressed column chunks.

Version 1 layout (all integers little-endian)::

    magic "RCF1"
    u16 n_columns
    per column: u16 name_len, name utf-8, u8 is_string
    u32 n_row_groups
    per row group:
        u64 n_rows
        per column (schema order):
            u8  encoding id      (encodings.py, plus DICT_REF below)
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

Version 2 keeps the group-body layout byte-for-byte but makes the file
*seekable* and the write path cheaper::

    magic "RCF2"
    u16 n_columns
    per column: u16 name_len, name utf-8, u8 is_string
    u32 n_row_groups
    group bodies (same layout as v1)
    footer: per group, u64 absolute_offset + u64 n_rows
    u64 footer_start
    tail magic "RCF2"

The footer lets :class:`RcfReader` open a file in O(1) — group headers
are parsed lazily on first touch instead of sequentially on open — and
keeps every absolute offset out of the group bodies, so a body means
the same wherever it sits (:meth:`RcfWriter.append_encoded` copies
them between files).  Three writer-side rules cut encode cost without
a reader round-trip:

* **DICT_REF** (encoding 4, v2 only): a string chunk whose encoded
  vocabulary is byte-identical to an earlier group's stores only
  ``u32 donor_group`` + the int32 codes; the vocabulary is read from
  the donor chunk.
* **cheap codec**: chunks ≤ 64 raw bytes are stored raw; larger chunks
  are first gated by a cheap probe — a zlib pass over a 4 KiB prefix
  for big chunks, a byte-histogram entropy estimate for mid-size ones
  — and stored raw when the probe says zlib would not pay for itself
  (already-compact numeric columns).
* Both rules are pure functions of (content, codec) — never toggled by
  fast-path state — so baseline and optimized runs write identical
  bytes.

The writer writes v2 only; the reader still reads v1, the layout of
parts archived before v2 existed.

Column projection works by *skipping* unneeded payloads (we know their
length without decoding); predicate pushdown works by testing each row
group's stats before touching its payloads.  Together these are the two
I/O savings the paper attributes to the Parquet/OCEAN design.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.columnar import encodings as _enc
from repro.columnar.compression import (
    CODECS,
    _compress_raw,
    codec_name,
    compress,
    decompress,
)
from repro.columnar.encodings import (
    choose_encoding,
    decode_column,
    encode_column,
)
from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.perf import baseline

__all__ = [
    "RcfWriter",
    "RcfReader",
    "DICT_REF",
    "write_table",
    "read_table",
    "column_stats",
    "chunk_memo_stats",
    "clear_chunk_memo",
]

_MAGIC = b"RCF1"
_MAGIC_V2 = b"RCF2"

#: File-format-level encoding id (v2 only): payload is ``u32 donor_group``
#: followed by this chunk's int32 codes; the vocabulary lives in the donor
#: group's DICTIONARY chunk of the same column.  Decoding needs reader
#: context (another group's payload), hence defined here rather than in
#: :mod:`repro.columnar.encodings`.
DICT_REF = 4

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


def _byte_entropy(raw: bytes) -> float:
    """Shannon entropy of the byte histogram, in bits per byte."""
    counts = np.bincount(np.frombuffer(raw, dtype=np.uint8))
    p = counts[counts > 0] / len(raw)
    return float(-(p * np.log2(p)).sum())


# -- serialized-chunk memo ----------------------------------------------------
#
# The writer's per-column work — encoding choice, encode, compress,
# stats, framing — is a pure function of (column content, dtype, codec).
# Stable columns recur across windows and tiers (id columns, constant
# gauges), so the fully serialized chunk is memoized under one content
# digest; a hit skips the entire per-column path, including zlib.
#
# Columns above _chunk_memo_col_max_bytes bypass the memo entirely (no
# digest, no store): digest cost grows with size while recurrence odds
# shrink — large measurement columns carry fresh noise every window, so
# hashing them is pure overhead on a guaranteed miss.

_chunk_lock = threading.Lock()
_chunk_memo: "OrderedDict[tuple, bytes]" = OrderedDict()
_chunk_memo_bytes = 0
_chunk_memo_max_bytes = 32 << 20
_chunk_memo_col_max_bytes = 1 << 15
_chunk_hits = 0
_chunk_misses = 0


def chunk_memo_stats() -> dict:
    """Occupancy and hit/miss counters of the writer's chunk memo."""
    with _chunk_lock:
        return {
            "entries": len(_chunk_memo),
            "bytes": _chunk_memo_bytes,
            "max_bytes": _chunk_memo_max_bytes,
            "hits": _chunk_hits,
            "misses": _chunk_misses,
        }


def clear_chunk_memo() -> None:
    """Drop all memoized serialized chunks and reset counters."""
    global _chunk_memo_bytes, _chunk_hits, _chunk_misses
    with _chunk_lock:
        _chunk_memo.clear()
        _chunk_memo_bytes = 0
        _chunk_hits = 0
        _chunk_misses = 0


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


def _vocab_section(raw: bytes) -> bytes:
    """The vocabulary part of an encoded string DICTIONARY chunk —
    kind byte, counts and length-prefixed entries, without the codes."""
    _n_vocab, blob_len = struct.unpack_from("<qq", raw, 1)
    return raw[: 17 + blob_len]


class RcfWriter:
    """Streaming writer: append tables, then :meth:`finish` to get bytes.

    All appended tables must share the schema of the first.
    """

    def __init__(self, codec: str = "fast", row_group_size: int = 65_536) -> None:
        if codec not in CODECS:
            raise ValueError(f"unknown codec {codec!r}")
        if row_group_size <= 0:
            raise ValueError("row_group_size must be positive")
        self.codec = codec
        self.row_group_size = row_group_size
        self._schema: list[tuple[str, bool]] | None = None
        self._groups: list[bytes] = []
        self._group_rows: list[int] = []
        self._n_rows = 0
        # column name -> (group index, encoded vocab section) of the most
        # recent DICTIONARY chunk, for DICT_REF back-references.
        self._vocab_donors: dict[str, tuple[int, bytes]] = {}

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
        writer would start it), and came from a v2 writer under this
        codec — a v2 body holds no file offset, and a ``DICT_REF``
        names its donor by group index, which a prefix keeps.  The
        vocabulary donors are taken over with the groups, so that the
        groups encoded next make the back-reference decisions a writer
        that had encoded everything would.
        """
        if self._groups:
            raise ValueError("encoded groups can only open a file")
        if reader.version != 2:
            return 0
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
        for name, is_string in self._schema:
            if not is_string:
                continue
            donor = max(
                g
                for g in range(n)
                if reader.group_encoding(g, name) == _enc.DICTIONARY
            )
            meta = reader._group(donor).chunks[name]
            raw = decompress(reader._payload(meta), meta.codec)
            self._vocab_donors[name] = (donor, bytes(_vocab_section(raw)))
        return n

    def _encode_group(self, chunk: ColumnTable) -> bytes:
        from repro.perf import PERF

        with PERF.timer("columnar.encode_group"):
            return self._encode_group_impl(chunk)

    def _maybe_dict_ref(
        self, name: str, group_index: int, raw: bytes
    ) -> tuple[int, bytes]:
        """Swap a repeated string vocabulary for a back-reference.

        Consecutive row groups of one topic usually share the exact
        vocabulary (host names, sensor names, severity levels); when the
        encoded vocab section is byte-identical to an earlier group's,
        only ``u32 donor_group`` + the codes are written.
        """
        vocab_sec = _vocab_section(raw)
        donor = self._vocab_donors.get(name)
        if donor is not None and donor[1] == vocab_sec:
            return DICT_REF, struct.pack("<I", donor[0]) + raw[len(vocab_sec):]
        self._vocab_donors[name] = (group_index, vocab_sec)
        return _enc.DICTIONARY, raw

    def _frame_payload(self, raw: bytes, memo_cold: bool) -> tuple[bytes, str]:
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
                len(_compress_raw(sample, self.codec))
                >= _CHEAP_SKIP_RATIO * len(sample)
            ):
                return raw, "none"
        elif _byte_entropy(raw) >= _CHEAP_ENTROPY_BITS:
            return raw, "none"
        payload = (
            _compress_raw(raw, self.codec)
            if memo_cold
            else compress(raw, self.codec)
        )
        # Keep whichever is smaller; record the codec actually used.
        if len(payload) >= len(raw):
            return raw, "none"
        return payload, self.codec

    def _encode_group_impl(self, chunk: ColumnTable) -> bytes:
        global _chunk_memo_bytes, _chunk_hits, _chunk_misses
        group_index = len(self._groups)
        parts = [struct.pack("<Q", chunk.num_rows)]
        for name, is_string in self._schema or []:
            col = chunk[name]
            key = None
            memo_cold = False
            if col.dtype != object and col.size and not baseline.active():
                contig = np.ascontiguousarray(col)
                if col.nbytes <= _chunk_memo_col_max_bytes:
                    key = (
                        self.codec,
                        is_string,
                        col.dtype.str,
                        col.size,
                        hashlib.blake2b(contig, digest_size=16).digest(),
                    )
                    with _chunk_lock:
                        hit = _chunk_memo.get(key)
                        if hit is not None:
                            _chunk_hits += 1
                            _chunk_memo.move_to_end(key)
                            parts.append(hit)
                            continue
                        _chunk_misses += 1
                # The chunk digest subsumes the inner memos' keys, so the
                # cold path calls the un-memoized implementations directly
                # rather than digesting the same bytes twice more.  (Over
                # the size gate, key stays None: same direct path, no
                # digest or store at all.)
                encoding = _enc._choose_encoding_impl(contig)
                raw = encode_column(col, encoding)
                memo_cold = True
            else:
                encoding = choose_encoding(col)
                raw = encode_column(col, encoding)
            if encoding == _enc.DICTIONARY and col.dtype == object:
                # String chunks bypass the memo (dtype gate above), so a
                # position-dependent DICT_REF blob can never be reused in
                # the wrong file context.
                encoding, raw = self._maybe_dict_ref(name, group_index, raw)
            payload, codec = self._frame_payload(raw, memo_cold)
            stats = column_stats(col)
            flags = 0
            if stats is not None:
                flags = 1 if stats[2] else 3  # bit0 present, bit1 inexact
            sub = [struct.pack("<BBB", encoding, CODECS[codec], flags)]
            if stats is not None:
                lo, hi, _exact = stats
                if is_string:
                    lo_b = str(lo).encode("utf-8")
                    hi_b = str(hi).encode("utf-8")
                    sub.append(struct.pack("<I", len(lo_b)) + lo_b)
                    sub.append(struct.pack("<I", len(hi_b)) + hi_b)
                else:
                    sub.append(struct.pack("<dd", float(lo), float(hi)))
            sub.append(struct.pack("<Q", len(payload)))
            sub.append(payload)
            blob = b"".join(sub)
            if key is not None:
                with _chunk_lock:
                    if key not in _chunk_memo:
                        _chunk_memo[key] = blob
                        _chunk_memo_bytes += len(blob)
                    _chunk_memo.move_to_end(key)
                    while (
                        _chunk_memo_bytes > _chunk_memo_max_bytes
                        and len(_chunk_memo) > 1
                    ):
                        _, dropped = _chunk_memo.popitem(last=False)
                        _chunk_memo_bytes -= len(dropped)
            parts.append(blob)
        return b"".join(parts)

    @property
    def num_rows(self) -> int:
        """Rows appended so far."""
        return self._n_rows

    def finish(self) -> bytes:
        """Serialize everything appended into one RCF byte string."""
        schema = self._schema or []
        parts = [_MAGIC_V2, struct.pack("<H", len(schema))]
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
        parts.append(_MAGIC_V2)
        return b"".join(parts)


def _materialize_string_dictionary(
    vocab: np.ndarray, codes: np.ndarray
) -> np.ndarray:
    """``values[codes]`` for a string vocabulary, -1 codes -> None —
    exactly what :func:`encodings.decode_column` produces for an inline
    DICTIONARY chunk."""
    out = np.empty(codes.size, dtype=object)
    nulls = codes < 0
    safe = np.where(nulls, 0, codes)
    if vocab.size:
        vlist = vocab.tolist()
        out[:] = [vlist[c] for c in safe.tolist()]
    out[nulls] = None
    return out


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


class RcfReader:
    """Reader with column projection and stats-based row-group pruning.

    Reads both format versions: v1 buffers are parsed sequentially on
    open (the only option without a footer); v2 buffers open in O(1) by
    reading the footer, and each group header is parsed lazily the
    first time that group is touched.

    A reader holds no scan state — only the buffer, the parsed footer
    and headers (with each raw chunk's view), and the lazily computed
    digest — so one instance can serve any number of scans of the same
    bytes (the tier store keeps one per live part, see DESIGN.md §15
    "The part table").
    """

    def __init__(self, buf: bytes) -> None:
        head = buf[:4]
        if head == _MAGIC:
            self.version = 1
        elif head == _MAGIC_V2:
            self.version = 2
        else:
            raise ValueError("not an RCF buffer (bad magic)")
        self._buf = buf
        #: Group headers parsed so far — the probe the O(1)-open
        #: regression test watches.
        self.header_parse_count = 0
        off = 4
        (n_cols,) = struct.unpack_from("<H", buf, off)
        off += 2
        self.schema: list[tuple[str, bool]] = []
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
        self._is_string = dict(self.schema)
        self._digest: str | None = None
        self._metas: list[_GroupMeta | None] = [None] * n_groups
        if self.version == 1:
            self._group_offsets: list[int] | None = None
            self._group_rows: list[int] = []
            for i in range(n_groups):
                meta, off = self._parse_group(off)
                self._metas[i] = meta
                self._group_rows.append(meta.n_rows)
        else:
            if buf[-4:] != _MAGIC_V2:
                raise ValueError("truncated RCF2 buffer (bad tail magic)")
            (footer_start,) = struct.unpack_from("<Q", buf, len(buf) - 12)
            offsets: list[int] = []
            rows: list[int] = []
            pos = footer_start
            for _ in range(n_groups):
                o, r = struct.unpack_from("<QQ", buf, pos)
                offsets.append(o)
                rows.append(int(r))
                pos += 16
            self._group_offsets = offsets + [footer_start]
            self._group_rows = rows
        self._num_rows = sum(self._group_rows)

    def _parse_group(self, off: int) -> tuple[_GroupMeta, int]:
        buf = self._buf
        self.header_parse_count += 1
        (n_rows,) = struct.unpack_from("<Q", buf, off)
        off += 8
        chunks: dict[str, _ChunkMeta] = {}
        for name, is_string in self.schema:
            encoding, codec_id, flags = struct.unpack_from("<BBB", buf, off)
            off += 3
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
        return _GroupMeta(n_rows, chunks), off

    def _group(self, i: int) -> _GroupMeta:
        """Group metadata, parsed on first touch (v2) or on open (v1)."""
        meta = self._metas[i]
        if meta is None:
            assert self._group_offsets is not None
            meta, _ = self._parse_group(self._group_offsets[i])
            self._metas[i] = meta
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

    def group_stats(self, group: int) -> dict[str, tuple[object, object] | None]:
        """Per-column (min, max) stats of one row group."""
        return {n: c.stats for n, c in self._group(group).chunks.items()}

    def group_row_count(self, group: int) -> int:
        """Rows in one row group."""
        return self._group_rows[group]

    def group_encoding(self, group: int, name: str) -> int:
        """Encoding id of one chunk (see :mod:`repro.columnar.encodings`
        plus the file-level :data:`DICT_REF`)."""
        return self._group(group).chunks[name].encoding

    def decode_group_column(self, group: int, name: str) -> np.ndarray:
        """Decode exactly one chunk into an aligned array that owns its
        data — the late-materialization entry point: the scan executor
        decodes predicate columns first and calls back here only for
        groups that survive."""
        meta = self._group(group).chunks[name]
        if meta.encoding == DICT_REF:
            vocab, codes = self._dict_ref_parts(meta, name)
            return _materialize_string_dictionary(vocab, codes)
        return self._decode_chunk(meta)

    def raw_view(self, group: int, name: str) -> np.ndarray | None:
        """A read-only view of one chunk's values inside :attr:`buffer`,
        or None unless the chunk is PLAIN, stored raw (codec ``none``)
        and of a fixed-width numeric or bool dtype.

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
        dtype = _enc._parse_dtype(self._buf[off : off + 8])
        if dtype.kind not in "biuf":
            return None
        view = np.frombuffer(
            self._buf,
            dtype=dtype,
            count=(meta.payload_len - 8) // dtype.itemsize,
            offset=off + 8,
        )
        view.setflags(write=False)
        meta.view = view
        return view

    def group_bytes(self, group: int) -> bytes:
        """One row group's encoded body as it sits in the file (v2)."""
        if self._group_offsets is None:
            raise ValueError("an RCF1 buffer has no group index")
        return self._buf[
            self._group_offsets[group] : self._group_offsets[group + 1]
        ]

    def read_group(self, group: int) -> ColumnTable:
        """Every column of one row group — what a streaming rewrite
        pulls so that it never holds more than a group of an input."""
        return ColumnTable(
            {n: self.decode_group_column(group, n) for n, _ in self.schema}
        )

    def group_dictionary_parts(
        self, group: int, name: str
    ) -> tuple[np.ndarray, np.ndarray, bool] | None:
        """``(values, codes, is_string)`` of a DICTIONARY (or DICT_REF)
        chunk without materializing ``values[codes]``, or None for other
        encodings.  Enables evaluating ``Compare``/``IsIn`` on the
        (tiny) vocabulary and mapping the verdicts through the codes."""
        meta = self._group(group).chunks[name]
        if meta.encoding == DICT_REF:
            vocab, codes = self._dict_ref_parts(meta, name)
            return vocab, codes, True
        if meta.encoding != _enc.DICTIONARY:
            return None
        return _enc.decode_dictionary_parts(
            decompress(self._payload(meta), meta.codec)
        )

    def digest(self) -> str:
        """Stable content digest of the whole buffer — the cache token
        the decoded-row-group cache keys on (computed once, lazily)."""
        if self._digest is None:
            self._digest = hashlib.blake2b(
                self._buf, digest_size=16
            ).hexdigest()
        return self._digest

    def _payload(self, meta: _ChunkMeta) -> memoryview:
        """One chunk's payload, not copied: the decoders copy out of it
        (once) into arrays of their own."""
        return memoryview(self._buf)[
            meta.payload_offset : meta.payload_offset + meta.payload_len
        ]

    def _dict_ref_parts(
        self, meta: _ChunkMeta, name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(vocab, codes)`` of a DICT_REF chunk, vocabulary fetched
        from the donor group's DICTIONARY chunk of the same column."""
        buf = decompress(self._payload(meta), meta.codec)
        (donor,) = struct.unpack_from("<I", buf, 0)
        codes = np.frombuffer(buf, dtype=np.int32, offset=4)
        donor_meta = self._group(donor).chunks[name]
        if donor_meta.encoding != _enc.DICTIONARY:
            raise ValueError(
                f"DICT_REF donor group {donor} of column {name!r} is not "
                f"DICTIONARY-encoded"
            )
        vocab, _, _ = _enc.decode_dictionary_parts(
            decompress(self._payload(donor_meta), donor_meta.codec)
        )
        return vocab, codes

    def _decode_chunk(self, meta: _ChunkMeta) -> np.ndarray:
        return decode_column(
            decompress(self._payload(meta), meta.codec), meta.encoding
        )

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
        unknown = set(out_cols) - set(self.column_names())
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}")
        need = set(out_cols)
        if predicate is not None:
            need |= predicate.columns()

        pieces: list[ColumnTable] = []
        for gi in range(len(self._metas)):
            group = self._group(gi)
            if predicate is not None:
                stats = {n: c.stats for n, c in group.chunks.items()}
                if not predicate.might_match(stats):
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

    def scan_stats(self, predicate: Predicate) -> tuple[int, int]:
        """(groups_scanned, groups_pruned) for a predicate — bench hook."""
        scanned = pruned = 0
        for gi in range(len(self._metas)):
            stats = {
                n: c.stats for n, c in self._group(gi).chunks.items()
            }
            if predicate.might_match(stats):
                scanned += 1
            else:
                pruned += 1
        return scanned, pruned


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
