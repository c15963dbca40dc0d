"""The live part: one record per OCEAN part, owned by one table.

A :class:`LivePart` holds what the tier store derives from a part — its
manifest entries, each parsed once, and the read handle on the bytes a
scan fetched — and :class:`PartTable` hands the same records out until
the store changes, so both hold per part with no process-wide memo
(DESIGN.md §15, "The part table").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

from repro.columnar.file_format import RcfReader
from repro.lineage.ids import part_id
from repro.obs import METRICS
from repro.query import PartRun, ZoneMap, invalidate_token
from repro.storage import manifest
from repro.storage.object_store import ObjectMeta, ObjectStore

__all__ = ["LivePart", "Listing", "PartTable"]


class LivePart:
    """One OCEAN part: its :class:`ObjectMeta`, its manifest entries
    (each parsed on first use, once per record) and its read handle.
    A key whose metadata changes gets a new record, so a parse never
    outlives the string it was parsed from."""

    def __init__(self, meta: ObjectMeta, reader: RcfReader | None = None) -> None:
        self.meta = meta
        #: The handle :meth:`open` last opened, or None.
        self.reader = reader
        self._parsed: dict[str, object] = {}

    @property
    def key(self) -> str:
        return self.meta.key

    @property
    def created_at(self) -> float:
        return self.meta.created_at

    @cached_property
    def lineage_node(self) -> str:
        """The lineage node id the part records under
        (:meth:`repro.lineage.LineageCatalog.part_node`), hashed once
        per record."""
        return part_id(self.meta.bucket, self.meta.key)

    def _manifest(self, meta_key: str, parse: Callable[[str | None], object]):
        if meta_key not in self._parsed:
            self._parsed[meta_key] = parse(self.meta.user_meta.get(meta_key))
        return self._parsed[meta_key]

    @property
    def spans(self) -> tuple[tuple[float, int], ...] | None:
        """Retention spans, or None for legacy/mangled manifests (the
        part then ages as one block under its ``created_at``)."""
        return self._manifest(manifest.SPANS_META_KEY, manifest.spans_from_meta) or None

    def spans_for(self, num_rows: int) -> tuple[tuple[float, int], ...] | None:
        """:attr:`spans` if they cover the ``num_rows`` rows a footer
        counts — a split or merge cuts rows where they say — else None."""
        spans = self.spans
        return spans if spans and sum(n for _, n in spans) == num_rows else None

    @property
    def stats(self) -> Mapping[str, tuple | None] | None:
        return self._manifest(manifest.STATS_META_KEY, manifest.stats_from_meta)

    @property
    def columns(self) -> tuple[str, ...] | None:
        return self._manifest(manifest.COLUMNS_META_KEY, manifest.columns_from_meta)

    @property
    def replaces(self) -> tuple[str, ...] | None:
        return self._manifest(manifest.REPLACES_META_KEY, manifest.replaces_from_meta)

    def open(self, blob: bytes) -> RcfReader:
        """The read handle of the fetched ``blob``, opened at most once.

        Opening hashes the bytes fetched (the row-group cache token).  A
        handle is valid only for the ``bytes`` object it was opened on —
        not for the manifest digest, which a part corrupted on its way
        into the store shares with the clean table."""
        old = self.reader
        if old is not None and old.buffer is blob:
            return old
        reader = RcfReader(blob)
        digest = reader.digest()
        METRICS.inc("query.parts_opened")
        METRICS.inc("query.bytes_hashed", len(blob))
        if old is not None and old.digest() != digest:
            # Overwritten in place: nothing can ask for the old bytes'
            # decoded groups again.  Equal bytes fetched as a new object
            # (a store that copies on get) keep them, and their runs'.
            invalidate_token(old.digest())
        self.reader = reader
        return reader

    def token(self, blob: bytes | None = None) -> str:
        """The part's row-group cache token: the open handle's digest
        (what scans keyed the cache by), else the manifest's, else that
        of ``blob`` for a pre-manifest part ("" — invalidating nothing —
        when there is none)."""
        if self.reader is not None:
            return self.reader.digest()
        digest = self.meta.user_meta.get(manifest.DIGEST_META_KEY)
        return digest or ("" if blob is None else manifest.blob_token(blob))


def _ingest_order(part: LivePart) -> tuple[float, str]:
    spans = part.spans
    return (part.created_at if spans is None else spans[0][0], part.key)


@dataclass(frozen=True)
class Listing:
    """One derivation of a dataset's parts from one store listing."""

    #: Every part under the dataset's prefix, in key order.
    present: tuple[LivePart, ...]
    #: Keys any present part's ``replaces`` names — dead or alive, so a
    #: half-collected rewrite chain cannot resurrect its grandparents.
    dead: frozenset[str]
    #: ``present`` minus ``dead`` in ingest order: by (oldest span
    #: epoch, key), because a retention split's remainder takes the
    #: highest part number while holding the *oldest* rows.
    live: tuple[LivePart, ...]
    #: Row bound -> :func:`_pack_runs` of ``live``, derived on first ask.
    _runs: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def zone_map(self) -> ZoneMap:
        """``live``'s manifest bounds as per-column arrays (what
        :func:`repro.query.plan_parts` prunes with), in ``live`` order —
        the order :meth:`runs` counts in — built on first ask."""
        return ZoneMap([(p.key, p.meta.size, p.stats) for p in self.live])

    def runs(self, max_rows: int) -> tuple[tuple[int, PartRun], ...]:
        """``live``'s runs of at most ``max_rows`` rows (:func:`_pack_runs`),
        packed once per listing."""
        runs = self._runs.get(max_rows)
        if runs is None:
            runs = self._runs[max_rows] = _pack_runs(self.live, max_rows)
        return runs


def _pack_runs(
    parts: Sequence[LivePart], max_rows: int
) -> tuple[tuple[int, PartRun], ...]:
    """Consecutive parts that each hold one row group, packed oldest
    first into runs of at most ``max_rows`` rows — what one compacted
    row group would hold — as ``(index of the first member, run)``.

    Decided from manifests alone: a member has a digest and spans adding
    up to between 1 and ``max_rows`` rows.  A part that does not
    qualify ends the run before it; one that would overflow starts the
    next.  A run has at least two members.  Whether the bytes match —
    digest, one group, row count, columns, dtypes — is checked where a
    scan reads them (:mod:`repro.query.executor`)."""
    runs: list[tuple[int, PartRun]] = []
    first, digests, rows, total = 0, [], [], 0

    def close() -> None:
        if len(digests) > 1:
            runs.append((first, PartRun.of(digests, rows)))

    for i, part in enumerate(parts):
        digest = part.meta.user_meta.get(manifest.DIGEST_META_KEY)
        spans = part.spans
        n = sum(k for _, k in spans) if spans else 0
        if not digest or not 0 < n <= max_rows:
            close()
            first, digests, rows, total = i + 1, [], [], 0
            continue
        if total + n > max_rows:
            close()
            first, digests, rows, total = i, [], [], 0
        digests.append(digest)
        rows.append(n)
        total += n
    close()
    return tuple(runs)


class PartTable:
    """Each dataset's :class:`Listing`, derived once per store stamp —
    read before the listing, so a racing mutation leaves it stale, never
    current-looking.  A derivation keeps the previous record of every
    key whose ``ObjectMeta`` is the same object, and the handle (which
    checks its own bytes) of a key whose metadata changed."""

    def __init__(self, bucket: str) -> None:
        self.bucket = bucket
        self._listings: dict[str, tuple[ObjectStore, int, Listing]] = {}
        # Callers may query and ingest from threads of their own.
        self._lock = threading.Lock()

    def listing(self, ocean: ObjectStore, name: str) -> Listing:
        """Dataset ``name``'s parts as ``ocean`` holds them now."""
        stamp = ocean.stamp
        with self._lock:
            held = self._listings.get(name)
        if held is not None and held[0] is ocean and held[1] == stamp:
            return held[2]
        previous = {} if held is None else {p.key: p for p in held[2].present}
        present = []
        for meta in ocean.list(self.bucket, prefix=f"{name}/"):
            part = previous.pop(meta.key, None)
            if part is None or part.meta is not meta:
                part = LivePart(meta, None if part is None else part.reader)
            present.append(part)
        # A key deleted behind the store's back (not through its retire)
        # still holds its handle: release the decoded groups cached under it.
        for gone in previous.values():
            if gone.reader is not None:
                invalidate_token(gone.reader.digest())
                gone.reader = None
        dead = frozenset(k for p in present for k in p.replaces or ())
        live = sorted((p for p in present if p.key not in dead), key=_ingest_order)
        derived = Listing(tuple(present), dead, tuple(live))
        with self._lock:
            self._listings[name] = (ocean, stamp, derived)
        return derived

    def forget(self, part: LivePart) -> None:
        """Drop a deleted part's read handle; the record itself leaves
        with the next derivation, which the delete's stamp forces."""
        part.reader = None
