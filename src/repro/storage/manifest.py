"""Per-part manifests: column stats riding on object metadata.

The object store is deliberately dumb bytes; what makes OCEAN queries
cost-proportional-to-results is a little metadata written *beside* each
part at put time (the S3-tags idiom):

* ``stats`` — per-column (min, max[, exact]) bounds of the whole part,
  JSON-encoded.  The planner tests predicates against these, so a part
  that cannot match is never fetched at all — pruning level zero,
  before the row-group stats inside the file even come into play.
* ``columns`` — the part's schema names, so a query can resolve its
  projection (and return schema-shaped empty results) without fetching
  a single blob.
* ``digest`` — the part's content digest (the row-group cache token),
  letting compaction and retention release cache memory for deleted
  parts without re-reading them.
* ``spans`` — the part's retention provenance: an ascending list of
  ``(created_at, n_rows)`` runs recording which ingest batch each row
  block came from.  A freshly ingested part is one span; a compacted
  part carries one span per merged ingest epoch, in row order, so
  retention can expire exactly the rows the uncompacted store would
  have expired (see :mod:`repro.storage.lifecycle`).
* ``replaces`` — the commit record of the crash-safe rewrite protocol:
  the part keys this object supersedes.  A key named in *any* present
  part's ``replaces`` is dead the instant the replacing put lands; the
  later deletes are pure garbage collection, resumable after a crash.

Parts written before this manifest existed simply lack the keys; every
reader here degrades to None and the planner treats None as
"unprunable", so old data stays correct, just slower.

The four ``*_from_meta`` parsers validate as they decode (counted as
``manifest.parses``) and return immutable values — tuples and a
read-only mapping — because a part's record hands one parse to every
caller (:mod:`repro.storage.parts`).
"""

from __future__ import annotations

import hashlib
import json
import math
from types import MappingProxyType
from typing import Mapping

from repro.columnar.file_format import RcfReader, column_stats
from repro.columnar.table import ColumnTable
from repro.obs import METRICS

__all__ = [
    "STATS_META_KEY",
    "COLUMNS_META_KEY",
    "DIGEST_META_KEY",
    "SPANS_META_KEY",
    "REPLACES_META_KEY",
    "table_stats",
    "group_stats",
    "stats_to_meta",
    "stats_from_meta",
    "columns_to_meta",
    "columns_from_meta",
    "spans_to_meta",
    "spans_from_meta",
    "replaces_to_meta",
    "replaces_from_meta",
    "blob_token",
    "part_meta",
]

STATS_META_KEY = "stats"
COLUMNS_META_KEY = "columns"
DIGEST_META_KEY = "digest"
SPANS_META_KEY = "spans"
REPLACES_META_KEY = "replaces"


def table_stats(table: ColumnTable) -> dict:
    """Part-level column -> (min, max[, exact]) bounds of one table."""
    return {n: column_stats(table[n]) for n in table.column_names}


def group_stats(reader: RcfReader) -> dict:
    """Part-level bounds merged from a file's row-group headers.

    Equal to :func:`table_stats` of the decoded table without decoding
    it: min/max compose exactly, and a (never empty) group without
    bounds is all-NaN, which makes the column inexact just as its NaNs
    do in a whole-column pass.  The one thing a merge cannot reproduce
    is which zero a reduction returns for a column whose bound is zero
    with both signs present — the bound is equal, its sign may differ.
    """
    bounds: dict[str, tuple | None] = dict.fromkeys(reader.column_names())
    inexact: set[str] = set()
    for g in range(reader.num_row_groups):
        for name, s in reader.group_stats(g).items():
            if s is None or len(s) == 3:
                inexact.add(name)
            if s is not None:
                cur = bounds[name]
                bounds[name] = (
                    (s[0], s[1])
                    if cur is None
                    else (min(cur[0], s[0]), max(cur[1], s[1]))
                )
    return {
        name: None if b is None else (b[0], b[1], name not in inexact)
        for name, b in bounds.items()
    }


def stats_to_meta(stats: dict) -> str:
    """JSON-encode stats for a ``user_meta`` value.  Exact bounds
    serialize as 2-element lists, inexact as ``[lo, hi, false]`` —
    the same shapes :func:`repro.columnar.predicate.stats_bounds`
    normalizes."""
    enc: dict[str, list | None] = {}
    for name, s in stats.items():
        if s is None:
            enc[name] = None
        else:
            lo, hi, exact = s
            enc[name] = [lo, hi] if exact else [lo, hi, False]
    return json.dumps(enc, separators=(",", ":"))


def _parse(raw: str | None, kind: type):
    """JSON-decode one metadata value; None unless it is a ``kind``."""
    if not raw:
        return None
    METRICS.inc("manifest.parses")
    try:
        dec = json.loads(raw)
    except ValueError:
        return None
    return dec if isinstance(dec, kind) else None


def _strings(dec: list | None) -> tuple[str, ...] | None:
    """``dec`` as a tuple, or None unless every element is a string."""
    if dec is None or not all(type(x) is str for x in dec):
        return None
    return tuple(dec)


def _is_bound(x) -> bool:
    """A value a predicate can be compared with: a string or a number
    (NaN excluded — every comparison with it is False, which prunes)."""
    return type(x) in (str, int, float) and x == x


def stats_from_meta(raw: str | None) -> Mapping[str, tuple | None] | None:
    """Decode a ``stats`` metadata value; None for absent or mangled
    manifests (an unreadable manifest must never make a part
    unscannable — it only loses the prune).  Mangled includes valid
    JSON of the wrong shape: any entry that is not null, ``[lo, hi]``
    or ``[lo, hi, bool]`` voids the whole value."""
    dec = _parse(raw, dict)
    if dec is None:
        return None
    out: dict[str, tuple | None] = {}
    for name, v in dec.items():
        if v is None:
            out[name] = None
        elif (
            type(v) is list
            and len(v) in (2, 3)
            and _is_bound(v[0])
            and _is_bound(v[1])
            and (len(v) == 2 or type(v[2]) is bool)
        ):
            out[name] = tuple(v)
        else:
            return None
    return MappingProxyType(out)


def columns_to_meta(table: ColumnTable) -> str:
    """JSON-encode a table's schema names for ``user_meta``."""
    return json.dumps(list(table.column_names), separators=(",", ":"))


def columns_from_meta(raw: str | None) -> tuple[str, ...] | None:
    """Decode a ``columns`` metadata value (None when absent/mangled)."""
    return _strings(_parse(raw, list))


def spans_to_meta(spans: list[tuple[float, int]]) -> str:
    """JSON-encode a part's retention spans (``(created_at, n_rows)``
    runs in row order) for ``user_meta``."""
    return json.dumps(
        [[float(t), int(n)] for t, n in spans], separators=(",", ":")
    )


def spans_from_meta(raw: str | None) -> tuple[tuple[float, int], ...] | None:
    """Decode a ``spans`` metadata value (None when absent/mangled —
    every span must be ``[finite number, int >= 0]``).

    A part without decodable spans is treated as one opaque ingest epoch
    stamped with the object's ``created_at`` — exactly the pre-lifecycle
    retention granularity — so legacy parts stay correct."""
    dec = _parse(raw, list)
    if dec is None:
        return None
    out: list[tuple[float, int]] = []
    for item in dec:
        if not isinstance(item, list) or len(item) != 2:
            return None
        epoch, rows = item
        try:
            if type(epoch) not in (int, float) or not math.isfinite(epoch):
                return None
        except OverflowError:  # an int beyond float range
            return None
        if type(rows) is not int or rows < 0:
            return None
        out.append((float(epoch), rows))
    return tuple(out)


def replaces_to_meta(keys: list[str]) -> str:
    """JSON-encode the part keys a rewrite supersedes."""
    return json.dumps([str(k) for k in keys], separators=(",", ":"))


def replaces_from_meta(raw: str | None) -> tuple[str, ...] | None:
    """Decode a ``replaces`` metadata value (None when absent/mangled)."""
    return _strings(_parse(raw, list))


def blob_token(blob: bytes) -> str:
    """Content digest of a part blob — identical to
    :meth:`repro.columnar.file_format.RcfReader.digest`, so metadata
    written at put time keys the same cache entries the scanner fills."""
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def part_meta(table: ColumnTable | None, blob: bytes) -> dict[str, str]:
    """The manifest triple for one freshly written part: bounds from
    the table it was written from, or — for a streamed rewrite, which
    never holds one — merged from the row groups of ``blob``."""
    if table is None:
        reader = RcfReader(blob)
        stats = group_stats(reader)
        columns = json.dumps(reader.column_names(), separators=(",", ":"))
    else:
        stats, columns = table_stats(table), columns_to_meta(table)
    return {
        STATS_META_KEY: stats_to_meta(stats),
        COLUMNS_META_KEY: columns,
        DIGEST_META_KEY: blob_token(blob),
    }
