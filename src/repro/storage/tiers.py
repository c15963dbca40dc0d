"""Tiered placement and retention across STREAM/LAKE/OCEAN/GLACIER (Fig. 5).

Each medallion *data class* gets a placement-and-retention policy:

==========  ==============================  ===========================
class       placed in                        default retention
==========  ==============================  ===========================
bronze      OCEAN (short) -> GLACIER         7 days hot, archived forever
silver      LAKE + OCEAN                     30 days online, years on disk
gold        LAKE + OCEAN                     90 days online, years on disk
==========  ==============================  ===========================

matching the paper's policy of serving refined data hot while freezing
raw Bronze ("there was very little value in serving unrefined data sets
in hotter data tiers", §VI-B).  :meth:`TieredStore.enforce` performs the
age-out migrations and returns a report the Fig. 5 bench prints.

OCEAN rewrites (compaction, partial retention) follow a crash-safe
commit protocol.  A rewrite puts the replacement part *first*, carrying
the keys it supersedes in its ``replaces`` manifest entry — that single
put is the commit point.  Readers compute the live part set as "present
keys minus every key any present part replaces", so a crash between the
put and the old-part deletes can never surface duplicate rows; the
deletes are pure garbage collection, resumed by
:meth:`TieredStore.sweep_superseded` after restart.  DESIGN.md §15 walks
through the protocol and its failure windows.
"""

from __future__ import annotations

import enum
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.columnar.file_format import (
    RcfReader,
    RcfWriter,
    read_table,
    write_table,
)
from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.query import (
    ScanOptions,
    execute_plan,
    invalidate_token,
    plan_parts,
    scan_reference_active,
)
from repro.storage import manifest
from repro.storage.glacier import TapeArchive
from repro.storage.lake import TimeSeriesLake
from repro.storage.object_store import ObjectMeta, ObjectStore
from repro.storage.rollup import GoldRollup, RollupSpec

if TYPE_CHECKING:  # the catalog is duck-typed at runtime
    from repro.lineage import LineageCatalog

__all__ = [
    "DataClass",
    "TierPolicy",
    "TieredStore",
    "DEFAULT_POLICIES",
    "merge_suffix",
]

DAY_S = 86_400.0


class DataClass(enum.Enum):
    """Medallion refinement state of a dataset."""

    BRONZE = "bronze"
    SILVER = "silver"
    GOLD = "gold"


@dataclass(frozen=True)
class TierPolicy:
    """Placement + retention policy for one data class.

    ``None`` retention means the class never enters that tier;
    ``float('inf')`` means it is kept there forever.
    """

    lake_retention_s: float | None
    ocean_retention_s: float | None
    glacier: bool  # archive on ocean age-out (vs delete)
    codec: str = "fast"
    row_group_size: int = 65_536
    #: Minimum live OCEAN parts before the lifecycle compactor rewrites
    #: a dataset (the one-shot :meth:`TieredStore.compact` default).
    #: It sets *when* a dataset compacts, not how much: the merge takes
    #: the size-tiered suffix :func:`merge_suffix` selects, with every
    #: part older than that suffix counting as one towards this minimum.
    compact_min_parts: int = 4
    #: Bronze-freeze: for ``glacier`` classes, age-out to GLACIER after
    #: this many seconds even if ``ocean_retention_s`` has not elapsed
    #: (the §VI-B "freeze raw data early" lever).  ``None`` disables.
    freeze_after_s: float | None = None

    def __post_init__(self) -> None:
        for v in (self.lake_retention_s, self.ocean_retention_s):
            if v is not None and v <= 0:
                raise ValueError("retention must be positive or None")
        if self.row_group_size <= 0:
            raise ValueError("row_group_size must be positive")
        if self.compact_min_parts < 2:
            raise ValueError("compact_min_parts must be at least 2")
        if self.freeze_after_s is not None and self.freeze_after_s <= 0:
            raise ValueError("freeze_after_s must be positive or None")


DEFAULT_POLICIES: dict[DataClass, TierPolicy] = {
    DataClass.BRONZE: TierPolicy(
        lake_retention_s=None,
        ocean_retention_s=7 * DAY_S,
        glacier=True,
        codec="high",
    ),
    DataClass.SILVER: TierPolicy(
        lake_retention_s=30 * DAY_S,
        ocean_retention_s=5 * 365 * DAY_S,
        glacier=True,
        codec="fast",
    ),
    DataClass.GOLD: TierPolicy(
        lake_retention_s=90 * DAY_S,
        ocean_retention_s=5 * 365 * DAY_S,
        glacier=False,
        codec="fast",
    ),
}


def merge_suffix(
    parts: Sequence[tuple[int, int | None]], small_rows: int, min_objects: int
) -> int:
    """How many of the newest ``parts`` one compaction should merge.

    ``parts`` is a dataset's live parts as ``(ingest_epochs, rows)``,
    oldest first; ``rows`` is None where the manifest does not say.
    Starting from the newest part and walking older, a part joins the
    suffix while it is *small* (fewer than ``small_rows`` rows) or holds
    no more ingest epochs than everything newer than it combined, so a
    big part is rewritten only when the output at least doubles it —
    rows are rewritten O(log N) times and O(log N) parts stay live.  The
    suffix is merged only when it has two or more parts and, counting
    everything older as one part, ``min_objects`` are present: the same
    tick a merge of all parts would have run on.  Returns 0 for "leave
    the dataset alone".  DESIGN.md §15 has the amortization argument.
    """
    if not parts:
        return 0
    n = 1
    newer_epochs = parts[-1][0]
    for epochs, rows in reversed(parts[:-1]):
        small = rows is not None and rows < small_rows
        if not small and epochs > newer_epochs:
            break
        n += 1
        newer_epochs += epochs
    older = 1 if n < len(parts) else 0
    return n if n >= 2 and n + older >= min_objects else 0


class _NotStreamable(Exception):
    """The inputs of a rewrite cannot be written piece by piece: their
    rows are out of order, or they disagree on a column's dtype."""


def _write_groups(writer: RcfWriter, pieces: Iterable[ColumnTable]) -> bytes:
    """Finish ``writer`` with the pieces' rows in order — byte for byte
    what :func:`write_table` makes of their concatenation, while
    holding one row group of it: pieces are regrouped so that every
    ``append`` ends on a row-group boundary of the whole.  The pieces
    must agree on column dtypes (:class:`_NotStreamable` otherwise): a
    concatenation promotes mixed dtypes across all of its rows, a chunk
    cannot."""
    size = writer.row_group_size
    dtypes: list[np.dtype] | None = None
    held: list[ColumnTable] = []
    held_rows = 0
    for piece in pieces:
        if not piece.num_rows:
            continue
        piece_dtypes = [c.dtype for c in piece.columns().values()]
        if dtypes is None:
            dtypes = piece_dtypes
        elif piece_dtypes != dtypes:
            raise _NotStreamable
        if held_rows + piece.num_rows < size:
            held.append(piece)
            held_rows += piece.num_rows
            continue
        if held:
            fill = size - held_rows
            writer.append(ColumnTable.concat(held + [piece.slice(0, fill)]))
            piece = piece.slice(fill, piece.num_rows)
        held_rows = piece.num_rows % size
        whole = piece.num_rows - held_rows
        writer.append(piece.slice(0, whole))
        held = [piece.slice(whole, piece.num_rows)] if held_rows else []
    writer.append(ColumnTable.concat(held))
    return writer.finish()


def _merge_runs(
    runs: Iterable[Sequence[tuple[float, int]]],
) -> list[tuple[float, int]]:
    """The spans of inputs laid end to end: empty spans dropped,
    neighbours of one epoch joined."""
    out: list[tuple[float, int]] = []
    for spans in runs:
        for epoch, n in spans:
            if out and out[-1][0] == epoch:
                out[-1] = (out[-1][0], out[-1][1] + n)
            elif n:
                out.append((float(epoch), int(n)))
    return out


def _epoch_rises(spans: Sequence[tuple[float, int]]) -> np.ndarray | None:
    """Row offsets at which :func:`_merge_runs` spans start, if each
    starts a later epoch than the one before — the only rows where time
    may fall if the rows are to be in (epoch, time) order already.
    None when an epoch falls (or is NaN): only a sort can order that."""
    if not (np.diff([epoch for epoch, _ in spans]) > 0).all():
        return None
    return np.cumsum([0] + [n for _, n in spans[:-1]])


def _time_in_order(
    ts: np.ndarray, row: int, prev_ts: float, rises: np.ndarray
) -> bool:
    """Whether times ``ts`` of the rows from offset ``row`` on, the row
    before them at ``prev_ts``, fall only at ``rises``.  A NaN is "no":
    its place in the order is whatever the sort gives it."""
    if np.isnan(ts).any():
        return False
    falls = np.flatnonzero(ts[1:] < ts[:-1]) + (row + 1)
    if ts[0] < prev_ts:
        falls = np.append(falls, row)
    return not falls.size or bool(np.isin(falls, rises).all())


@dataclass
class _DatasetMeta:
    name: str
    data_class: DataClass
    next_part: int = 0


class TieredStore:
    """One-stop data service: ingest once, placed per class policy.

    Parameters
    ----------
    lake, ocean, glacier:
        Backing services (constructed if omitted).
    policies:
        Class -> :class:`TierPolicy` (defaults to :data:`DEFAULT_POLICIES`).
    time_column:
        Name of the event-time column in ingested tables.
    retry_policy:
        Backoff policy for transient tier-write faults (defaults to
        :data:`repro.faults.retry.DEFAULT_RETRY_POLICY`).
    lineage:
        Optional :class:`repro.lineage.LineageCatalog`.  When given,
        every committed OCEAN part, rollup partial and query answer is
        recorded write-through at its producing site: part nodes land
        only *after* the commit put returns (so a crash at the put site
        leaves catalog and store consistent), supersede edges ride the
        compaction commit point, and retirement follows the delete.
    """

    OCEAN_BUCKET = "oda"

    def __init__(
        self,
        lake: TimeSeriesLake | None = None,
        ocean: ObjectStore | None = None,
        glacier: TapeArchive | None = None,
        policies: dict[DataClass, TierPolicy] | None = None,
        time_column: str = "timestamp",
        retry_policy: RetryPolicy | None = None,
        lineage: "LineageCatalog | None" = None,
    ) -> None:
        self.lake = lake or TimeSeriesLake(time_column)
        self.ocean = ocean or ObjectStore()
        self.glacier = glacier or TapeArchive()
        self.policies = dict(policies or DEFAULT_POLICIES)
        self.time_column = time_column
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self.ocean.create_bucket(self.OCEAN_BUCKET)
        self._datasets: dict[str, _DatasetMeta] = {}
        #: Part key -> the read handle opened on its bytes (see
        #: :meth:`_open_part`); dropped in :meth:`_delete_part`, so it
        #: never outgrows the live part set.
        self._handles: dict[str, RcfReader] = {}
        #: Dataset -> (store, its mutation stamp, ordered live parts) as
        #: :meth:`_live_parts` last derived them.
        self._live_views: dict[
            str, tuple[ObjectStore, int, tuple[ObjectMeta, ...]]
        ] = {}
        # Callers may drive ``register`` and ``ingest`` from their own
        # threads; all registry access — including part-number
        # allocation, the handle table and the live-part views — goes
        # through this lock.
        self._registry_lock = threading.Lock()
        self._rollups: dict[str, GoldRollup] = {}
        self._rollup_lock = threading.Lock()
        # Monotone data version: bumped on every committed mutation of
        # queryable state (ingest, part delete/rewrite, lake drop), so
        # readers can fingerprint "has anything changed since I looked?"
        # with one integer — the serving gateway keys its result cache
        # on it (see repro.serve.cache).
        self._version = 0
        self._version_lock = threading.Lock()
        self.lineage = lineage
        # Per-thread read-set sink (see collect_reads): query paths
        # report their lineage query node into whichever sink the
        # current thread has open, so the serving gateway can draw each
        # envelope's ``read`` edges.
        self._read_local = threading.local()

    # -- data version -----------------------------------------------------------

    def data_version(self) -> int:
        """Monotone counter of committed mutations to queryable state.

        Two calls returning the same value bracket a span in which every
        query against this store would have answered identically; any
        ingest, retention action, compaction or sweep in between bumps
        it.  The serving gateway's result cache keys entries on
        ``(query fingerprint, data_version)``, which makes lifecycle
        ticks natural cache-invalidation events.
        """
        with self._version_lock:
            return self._version

    def _bump_version(self) -> None:
        with self._version_lock:
            self._version += 1

    # -- read-set tracking ------------------------------------------------------

    @contextmanager
    def collect_reads(self):
        """Collect this thread's query reads into a fresh sink.

        Yields a list that accumulates the lineage node id of every
        tracked query this thread runs inside the block (nothing when
        the store has no catalog).  Sinks nest (the previous one is
        restored on exit) and are strictly thread-local, so callers
        serving from several threads of their own see no cross-talk.
        """
        prev = getattr(self._read_local, "sink", None)
        sink: list[str] = []
        self._read_local.sink = sink
        try:
            yield sink
        finally:
            self._read_local.sink = prev

    def _note_read(self, node: str | None) -> None:
        sink = getattr(self._read_local, "sink", None)
        if sink is not None and node is not None:
            sink.append(node)

    # -- dataset registry -------------------------------------------------------

    def register(self, name: str, data_class: DataClass) -> None:
        """Declare a dataset and its medallion class."""
        with self._registry_lock:
            if name in self._datasets:
                raise ValueError(f"dataset {name!r} already registered")
            self._datasets[name] = _DatasetMeta(name, data_class)

    def datasets(self) -> dict[str, DataClass]:
        """Registered dataset -> class."""
        with self._registry_lock:
            return {n: m.data_class for n, m in self._datasets.items()}

    def _meta(self, name: str) -> _DatasetMeta:
        try:
            with self._registry_lock:
                return self._datasets[name]
        except KeyError:
            raise KeyError(f"dataset {name!r} not registered") from None

    def _allocate_part(self, meta: _DatasetMeta) -> int:
        """Claim the next part number for a dataset.

        Pipelined ingest and the lifecycle compactor both mint part
        keys; the increment must happen under the registry lock or two
        writers can claim the same number and the second put silently
        shadow the first part.
        """
        with self._registry_lock:
            part = meta.next_part
            meta.next_part = part + 1
        return part

    # -- ingest -------------------------------------------------------------------

    def ingest(self, name: str, table: ColumnTable, now: float) -> dict[str, bool]:
        """Write one batch of a dataset into its tiers.

        Returns which tiers received the batch.
        """
        from repro.obs import TRACER
        from repro.perf import PERF

        with TRACER.span(f"tier.ingest:{name}", rows=table.num_rows):
            with PERF.timer("tier.ingest"):
                return self._ingest_impl(name, table, now)

    def _ingest_impl(self, name: str, table: ColumnTable, now: float) -> dict[str, bool]:
        meta = self._meta(name)
        policy = self.policies[meta.data_class]
        placed = {"lake": False, "ocean": False}
        if table.num_rows == 0:
            return placed
        if policy.lake_retention_s is not None:
            call_with_retry(
                lambda: self.lake.ingest(name, table),
                policy=self.retry_policy,
                site="tier.lake.ingest",
            )
            placed["lake"] = True
        if policy.ocean_retention_s is not None:
            key = f"{name}/part-{self._allocate_part(meta):08d}.rcf"
            blob = write_table(
                table, codec=policy.codec, row_group_size=policy.row_group_size
            )
            user_meta = {"dataset": name, "class": meta.data_class.value}
            user_meta.update(manifest.part_meta(table, blob))
            user_meta[manifest.SPANS_META_KEY] = manifest.spans_to_meta(
                [(now, table.num_rows)]
            )
            call_with_retry(
                lambda: self.ocean.put(
                    self.OCEAN_BUCKET,
                    key,
                    blob,
                    created_at=now,
                    user_meta=user_meta,
                ),
                policy=self.retry_policy,
                site="tier.ocean.put",
            )
            self._rollup_observe(name, key, table)
            # Lineage commit order mirrors the store's: the put above is
            # the commit point, so the part node is recorded only after
            # it returns — a SimulatedCrash at ``tier.put`` leaves
            # neither the part nor the node behind.
            self._lineage_part(name, key, table.num_rows, batch_now=now)
            placed["ocean"] = True
        if placed["lake"] or placed["ocean"]:
            self._bump_version()
        return placed

    # -- live part set ------------------------------------------------------------

    @staticmethod
    def _superseded(metas: list[ObjectMeta]) -> set[str]:
        """Keys tombstoned by any present part's ``replaces`` record.

        The union runs over *all* present parts, dead or alive: a
        superseded part's own ``replaces`` still counts, so a
        half-collected rewrite chain cannot resurrect its grandparents.
        """
        dead: set[str] = set()
        for m in metas:
            rep = manifest.replaces_from_meta(
                m.user_meta.get(manifest.REPLACES_META_KEY)
            )
            if rep:
                dead.update(rep)
        return dead

    def _live_parts(self, name: str) -> tuple[ObjectMeta, ...]:
        """A dataset's OCEAN parts minus superseded ones, in ingest
        order: by (oldest span epoch, key).  Key order alone is not
        ingest order — a :meth:`_split_expired` remainder takes a fresh,
        highest part number while holding the dataset's *oldest* rows.

        The answer is a function of the store's contents, so it is
        derived once per :attr:`ObjectStore.stamp` and handed out again
        until a put or delete — by anyone — moves the stamp.  The stamp
        is read before the listing: a mutation racing the derivation
        leaves a view that is already out of date, never one that looks
        current."""
        ocean = self.ocean
        stamp = ocean.stamp
        with self._registry_lock:
            view = self._live_views.get(name)
        if view is not None and view[0] is ocean and view[1] == stamp:
            return view[2]
        metas = ocean.list(self.OCEAN_BUCKET, prefix=f"{name}/")
        dead = self._superseded(metas)

        def ingest_order(m: ObjectMeta) -> tuple[float, str]:
            epoch = manifest.oldest_span_epoch(
                m.user_meta.get(manifest.SPANS_META_KEY)
            )
            return (m.created_at if epoch is None else epoch, m.key)

        live = tuple(
            sorted((m for m in metas if m.key not in dead), key=ingest_order)
        )
        with self._registry_lock:
            self._live_views[name] = (ocean, stamp, live)
        return live

    def _part_spans(
        self, obj: ObjectMeta, num_rows: int | None = None
    ) -> tuple[tuple[float, int], ...] | None:
        """A part's retention spans, or None for legacy/mangled
        manifests (the part then ages as one block under its
        ``created_at``).  When the caller knows the row count, spans
        that fail to cover it are rejected the same way."""
        spans = manifest.spans_from_meta(
            obj.user_meta.get(manifest.SPANS_META_KEY)
        )
        if not spans:
            return None
        if num_rows is not None and sum(n for _, n in spans) != num_rows:
            return None
        return spans

    def _open_part(self, key: str, blob: bytes) -> RcfReader:
        """The read handle of one fetched part, opened at most once.

        A handle is the part's :class:`RcfReader` — parsed footer,
        group headers parsed so far, and the content digest, hashed
        here from the bytes actually fetched (it is the row-group cache
        token, and the one place a verified read would compare it with
        the manifest's).  It is valid only for the ``bytes`` object it
        was opened on: the in-process store hands back the stored
        object, so identity holds until the key is overwritten; a store
        that copies on ``get`` merely re-opens every time.  The
        manifest digest cannot stand in for that check — a part
        corrupted on its way into the store carries the manifest of the
        clean table.
        """
        from repro.perf import PERF

        with self._registry_lock:
            reader = self._handles.get(key)
        if reader is not None:
            if reader.buffer is blob:
                return reader
            # Overwritten in place: nothing can ask for the old bytes'
            # decoded groups again.
            invalidate_token(reader.digest())
        reader = RcfReader(blob)
        reader.digest()
        PERF.count("query.parts_opened")
        PERF.count("query.bytes_hashed", len(blob))
        with self._registry_lock:
            self._handles[key] = reader
        return reader

    # -- lineage recording --------------------------------------------------------

    def _lineage_part(
        self,
        name: str,
        key: str,
        rows: int,
        batch_now: float | None = None,
        replaces: tuple[str, ...] = (),
    ) -> str | None:
        """Record one committed OCEAN part in the catalog.

        ``batch_now`` links the part to the refined batch that produced
        it — both sides derive the batch node ID from ``(dataset,
        now)``, so the edge needs no hand-off from the framework.
        ``replaces`` records a rewrite commit: supersede tombstones plus
        the input->output ``derived`` edges blast radius traverses.
        """
        cat = self.lineage
        if cat is None:
            return None
        nid = cat.record(
            "part",
            (self.OCEAN_BUCKET, key),
            attrs={"dataset": name, "key": key, "rows": rows},
        )
        if batch_now is not None:
            bid = cat.record(
                "batch", (name, batch_now), attrs={"dataset": name}
            )
            cat.link(bid, nid, "derived")
        if replaces:
            cat.supersede(
                nid, [cat.part_node(self.OCEAN_BUCKET, k) for k in replaces]
            )
        return nid

    def _lineage_partial(self, rollup: str, part_key: str) -> str | None:
        """Record one rollup partial, derived from its source part."""
        cat = self.lineage
        if cat is None:
            return None
        nid = cat.record(
            "rollup_partial",
            (rollup, part_key),
            attrs={"rollup": rollup, "key": part_key},
        )
        cat.link(cat.part_node(self.OCEAN_BUCKET, part_key), nid, "derived")
        return nid

    def _lineage_query(
        self, op: str, name: str, params: str, reads: list[str], rows: int
    ) -> str | None:
        """Record one query answer, reading from ``reads`` nodes.

        Identity includes the store generation, so repeating the same
        question at the same generation merges into one node instead of
        needing a sequence counter.
        """
        cat = self.lineage
        if cat is None:
            return None
        version = self.data_version()
        nid = cat.record(
            "query_result",
            (op, name, version, params),
            attrs={"op": op, "dataset": name, "version": version, "rows": rows},
        )
        cat.link_many(reads, nid, "read")
        return nid

    def reconcile_lineage(self) -> int:
        """Adopt the store's committed OCEAN state into the catalog.

        The recovery half of catalog consistency: a restart that builds
        a fresh catalog calls this once to adopt every present part —
        including tombstone chains from ``replaces`` manifests — before
        serving lineage queries.  Idempotent (recording merges), returns
        the number of parts visited.
        """
        cat = self.lineage
        if cat is None:
            return 0
        with self._registry_lock:
            names = sorted(self._datasets)
        adopted = 0
        for name in names:
            for m in self.ocean.list(self.OCEAN_BUCKET, prefix=f"{name}/"):
                nid = cat.record(
                    "part",
                    (self.OCEAN_BUCKET, m.key),
                    attrs={"dataset": name, "key": m.key},
                    span="",
                )
                rep = manifest.replaces_from_meta(
                    m.user_meta.get(manifest.REPLACES_META_KEY)
                )
                if rep:
                    cat.supersede(
                        nid,
                        [cat.part_node(self.OCEAN_BUCKET, k) for k in rep],
                    )
                adopted += 1
        return adopted

    # -- query --------------------------------------------------------------------

    def query_online(
        self,
        name: str,
        t0: float | None = None,
        t1: float | None = None,
        predicate: Predicate | None = None,
        columns: list[str] | None = None,
    ) -> ColumnTable:
        """Low-latency query against the LAKE tier."""
        # Online answers come from the LAKE's own copies, not OCEAN
        # artifacts, so nothing lineage-tracked is read.
        return self.lake.query(name, t0, t1, predicate, columns)

    def scan_ocean(
        self,
        name: str,
        predicate: Predicate | None = None,
        columns: list[str] | None = None,
    ) -> ColumnTable:
        """Batch scan of a dataset's OCEAN objects (unbounded-time
        archive query; parts the manifest excludes are never fetched)."""
        return self.query_archive(name, predicate=predicate, columns=columns)

    def query_archive(
        self,
        name: str,
        t0: float | None = None,
        t1: float | None = None,
        predicate: Predicate | None = None,
        columns: list[str] | None = None,
        options: ScanOptions | None = None,
    ) -> ColumnTable:
        """Planned scan of a dataset's OCEAN parts in ``[t0, t1)``.

        Pruning level zero happens *here*: parts whose persisted
        manifest stats exclude the folded predicate are planned out and
        never fetched from the object store (counted as
        ``ocean.parts_pruned``).  Surviving parts are fetched in plan
        order and then scanned through :func:`repro.query.execute_plan`
        (row-group pruning, late materialization, cache).  Under
        ``baseline_mode`` every part is fetched and the reference
        executor decodes everything.

        Parts superseded by an in-flight rewrite are excluded before
        planning, so a crash between a compaction's commit put and its
        garbage-collection deletes never yields duplicate rows.
        """
        from repro.obs import TRACER
        from repro.perf import PERF

        with TRACER.span("query.archive", dataset=name):
            with PERF.timer("tier.query_archive"):
                return self._query_archive_impl(
                    name, t0, t1, predicate, columns, options
                )

    def _query_archive_impl(
        self,
        name: str,
        t0: float | None,
        t1: float | None,
        predicate: Predicate | None,
        columns: list[str] | None,
        options: ScanOptions | None,
    ) -> ColumnTable:
        from repro.perf import PERF

        metas = self._live_parts(name)
        if not metas:
            return ColumnTable({})
        if columns is None:
            names = manifest.columns_from_meta(
                metas[0].user_meta.get(manifest.COLUMNS_META_KEY)
            )
            columns = None if names is None else list(names)
        plan = plan_parts(
            name,
            [
                (
                    m.key,
                    m.size,
                    manifest.stats_from_meta(
                        m.user_meta.get(manifest.STATS_META_KEY)
                    ),
                )
                for m in metas
            ],
            t0,
            t1,
            predicate,
            columns,
            self.time_column,
        )
        fetch_all = scan_reference_active()
        pruned = 0
        fetched_keys: list[str] = []
        for unit in plan.units:
            if unit.pruned and not fetch_all:
                pruned += 1
                continue
            unit.blob = self.ocean.get(self.OCEAN_BUCKET, unit.key)
            if not fetch_all:
                # The oracle decodes the fetched bytes itself, so what
                # it checks never depends on a handle.
                unit.reader = self._open_part(unit.key, unit.blob)
            fetched_keys.append(unit.key)
        if pruned:
            PERF.count("ocean.parts_pruned", pruned)
        if plan.columns is None:
            # Pre-manifest parts: recover the projection from the first
            # fetched header so empty results still carry the schema.
            first = next((u for u in plan.units if u.blob is not None), None)
            if first is not None:
                reader = first.reader or RcfReader(first.blob)
                plan.columns = reader.column_names()
        result = execute_plan(plan, options)
        nid = None
        cat = self.lineage
        if cat is not None:
            # Read edges cover exactly the parts fetched: a part the
            # planner pruned cannot have influenced this answer, so it
            # is (correctly) outside the blast radius.
            params = f"{t0}|{t1}|{predicate!r}|{columns!r}"
            nid = self._lineage_query(
                "archive",
                name,
                params,
                [cat.part_node(self.OCEAN_BUCKET, k) for k in fetched_keys],
                result.num_rows,
            )
        self._note_read(nid)
        return result

    # -- materialized rollups -----------------------------------------------------

    def add_rollup(self, spec: RollupSpec) -> GoldRollup:
        """Register a materialized rollup over a dataset's OCEAN parts.

        Parts already in the store are picked up lazily on the first
        :meth:`query_rollup` (the same reconciliation that makes the
        rollup crash-consistent); parts ingested, compacted, or expired
        afterwards maintain it incrementally.
        """
        self._meta(spec.source)  # datasets must be registered first
        with self._rollup_lock:
            if spec.name in self._rollups:
                raise ValueError(f"rollup {spec.name!r} already registered")
            ru = GoldRollup(spec, self.time_column)
            self._rollups[spec.name] = ru
        return ru

    def rollups(self) -> dict[str, RollupSpec]:
        """Registered rollup name -> spec."""
        with self._rollup_lock:
            return {n: r.spec for n, r in self._rollups.items()}

    def query_rollup(self, name: str) -> ColumnTable:
        """Serve a rollup from its materialized partials.

        Reconciles against the live part set first: partials of deleted
        parts are dropped and live parts the rollup has never seen are
        backfilled (counted as ``rollup.parts_backfilled``), so the
        answer is correct even right after a crash-interrupted rewrite
        — at worst it re-aggregates a few parts, it never scans rows a
        second time once their partial exists.
        """
        from repro.obs import TRACER
        from repro.perf import PERF

        with TRACER.span("tier.rollup", rollup=name):
            with PERF.timer("tier.query_rollup"):
                return self._query_rollup_impl(name)

    def _query_rollup_impl(self, name: str) -> ColumnTable:
        from repro.perf import PERF

        with self._rollup_lock:
            try:
                ru = self._rollups[name]
            except KeyError:
                raise KeyError(f"rollup {name!r} not registered") from None
        live = {m.key for m in self._live_parts(ru.spec.source)}
        seen = ru.part_keys()
        for key in seen - live:
            ru.drop_part(key)
        backfilled = 0
        for key in sorted(live - seen):
            blob = self.ocean.get(self.OCEAN_BUCKET, key)
            ru.observe_part(key, read_table(blob))
            self._lineage_partial(name, key)
            backfilled += 1
        if backfilled:
            PERF.count("rollup.parts_backfilled", backfilled)
        result = ru.merged()
        nid = None
        if self.lineage is not None:
            # The answer reads every live partial (idempotently
            # re-recorded here so a reconcile pass needs no extra walk).
            reads = [self._lineage_partial(name, key) for key in sorted(live)]
            nid = self._lineage_query(
                "rollup", name, "", reads, result.num_rows
            )
        self._note_read(nid)
        return result

    def _rollups_for(self, source: str) -> list[GoldRollup]:
        with self._rollup_lock:
            return [r for r in self._rollups.values() if r.spec.source == source]

    def _rollup_observe(self, name: str, key: str, table: ColumnTable) -> None:
        for ru in self._rollups_for(name):
            ru.observe_part(key, table)
            self._lineage_partial(ru.spec.name, key)

    def _rollup_drop(self, key: str) -> None:
        with self._rollup_lock:
            rollups = list(self._rollups.values())
        cat = self.lineage
        for ru in rollups:
            ru.drop_part(key)
            if cat is not None:
                cat.retire(cat.partial_node(ru.spec.name, key))

    # -- retention ------------------------------------------------------------------

    def enforce(self, now: float) -> dict[str, int]:
        """Apply retention: LAKE segment drops, OCEAN -> GLACIER/delete.

        Retention is span-aware: a compacted part records which ingest
        epoch each row block came from, so a part that straddles the
        horizon is *split* — the expired prefix is archived (glacier
        classes) and a remainder part is rewritten under the crash-safe
        ``replaces`` protocol — instead of the whole part surviving
        under its newest row's clock.  A part whose spans are missing,
        mangled or do not add up to the rows its footer counts is never
        split: it ages whole under its ``created_at``, and
        ``ocean_rewritten`` counts only splits that happened.  Glacier
        classes with ``freeze_after_s`` set age out at the earlier of
        retention and freeze (Bronze-freeze).

        Returns counters: ``lake_segments_dropped``, ``ocean_archived``,
        ``ocean_deleted``, ``ocean_rewritten``.
        """
        report = {
            "lake_segments_dropped": 0,
            "ocean_archived": 0,
            "ocean_deleted": 0,
            "ocean_rewritten": 0,
        }
        with self._registry_lock:
            registered = list(self._datasets.items())
        for name, meta in registered:
            policy = self.policies[meta.data_class]
            if policy.lake_retention_s is not None:
                dropped = self.lake.drop_before(
                    name, now - policy.lake_retention_s
                )
                report["lake_segments_dropped"] += dropped
                if dropped:
                    self._bump_version()
            if policy.ocean_retention_s is None:
                continue
            age_out_s = policy.ocean_retention_s
            if policy.glacier and policy.freeze_after_s is not None:
                age_out_s = min(age_out_s, policy.freeze_after_s)
            horizon = now - age_out_s
            for obj in self._live_parts(name):
                spans = self._part_spans(obj)
                blob = None
                if spans is not None:
                    expired = sum(1 for created, _ in spans if created < horizon)
                    if 0 < expired < len(spans):
                        # A split cuts rows where the spans say, so they
                        # must cover the rows the footer counts.
                        blob = self.ocean.get(self.OCEAN_BUCKET, obj.key)
                        spans = self._part_spans(obj, RcfReader(blob).num_rows)
                if spans is None:
                    expired = 0 if obj.created_at >= horizon else 1
                    whole = expired == 1
                else:
                    whole = expired == len(spans)
                if expired == 0:
                    continue
                if whole:
                    if policy.glacier and not self.glacier.exists(obj.key):
                        if blob is None:
                            blob = self.ocean.get(self.OCEAN_BUCKET, obj.key)
                        self.glacier.archive(
                            obj.key, blob, created_at=obj.created_at
                        )
                        report["ocean_archived"] += 1
                    else:
                        report["ocean_deleted"] += 1
                    self._delete_part(obj, blob)
                else:
                    self._split_expired(
                        name, meta, policy, obj, blob, spans, expired
                    )
                    report["ocean_rewritten"] += 1
        return report

    def _split_expired(
        self,
        name: str,
        meta: _DatasetMeta,
        policy: TierPolicy,
        obj: ObjectMeta,
        blob: bytes,
        spans: Sequence[tuple[float, int]],
        n_expired: int,
    ) -> None:
        """Rewrite a part that straddles the retention horizon.

        ``blob`` is the part as :meth:`enforce` fetched it to check
        that ``spans`` cover its rows.  Because compaction leaves rows
        in (ingest epoch, time) order, expired spans are always a row
        prefix.  Commit order matters: (1) archive the expired slice to
        GLACIER under ``key@expired`` (exists-guarded, so a crashed
        attempt retries idempotently), (2) put the remainder part with
        ``replaces=[key]`` — the commit point, (3) delete the old part.
        A crash anywhere leaves every row in exactly one live place.
        """
        table = read_table(blob)
        cut = sum(n for _, n in spans[:n_expired])
        if policy.glacier:
            archive_key = f"{obj.key}@expired"
            if not self.glacier.exists(archive_key):
                expired_blob = write_table(
                    table.slice(0, cut),
                    codec=policy.codec,
                    row_group_size=policy.row_group_size,
                )
                self.glacier.archive(
                    archive_key,
                    expired_blob,
                    created_at=spans[n_expired - 1][0],
                )
        remainder = table.slice(cut, table.num_rows)
        rem_spans = spans[n_expired:]
        key = f"{name}/part-{self._allocate_part(meta):08d}.rcf"
        rem_blob = write_table(
            remainder, codec=policy.codec, row_group_size=policy.row_group_size
        )
        user_meta = {"dataset": name, "class": meta.data_class.value}
        user_meta.update(manifest.part_meta(remainder, rem_blob))
        user_meta[manifest.SPANS_META_KEY] = manifest.spans_to_meta(rem_spans)
        user_meta[manifest.REPLACES_META_KEY] = manifest.replaces_to_meta(
            [obj.key]
        )
        call_with_retry(
            lambda: self.ocean.put(
                self.OCEAN_BUCKET,
                key,
                rem_blob,
                created_at=rem_spans[-1][0],
                user_meta=user_meta,
            ),
            policy=self.retry_policy,
            site="tier.ocean.put",
        )
        self._rollup_observe(name, key, remainder)
        self._lineage_part(
            name, key, remainder.num_rows, replaces=(obj.key,)
        )
        self._delete_part(obj, blob)

    def _part_token(self, obj: ObjectMeta, blob: bytes | None = None) -> str:
        """A part's row-group cache token.

        Scans key the cache by the digest of the bytes they fetched, so
        a part this store has opened answers with its handle's digest —
        the manifest's describes the table as written and misses a part
        corrupted on its way into the store.  A part it never opened
        falls back to the persisted digest, or one computed from
        ``blob`` for pre-manifest parts (empty string — invalidating
        nothing — when neither is available)."""
        with self._registry_lock:
            handle = self._handles.get(obj.key)
        if handle is not None:
            return handle.digest()
        token = obj.user_meta.get(manifest.DIGEST_META_KEY)
        if token:
            return token
        if blob is not None:
            return manifest.blob_token(blob)
        return ""

    def _delete_part(self, obj: ObjectMeta, blob: bytes | None = None) -> None:
        """Delete one OCEAN part and release everything keyed on it.

        A pre-manifest part this store never opened has no digest
        anywhere, so its blob must be in hand *before* the delete to
        compute the row-group cache token — otherwise the dead part's
        decoded groups linger in the cache until eviction.
        """
        token = self._part_token(obj, blob)
        if not token and blob is None:
            token = manifest.blob_token(
                self.ocean.get(self.OCEAN_BUCKET, obj.key)
            )
        self.ocean.delete(self.OCEAN_BUCKET, obj.key)
        # Like the retire below, the handle goes only once the delete
        # has landed: a crash at ``tier.delete`` leaves part and handle
        # both in place for the sweep that retries it.
        with self._registry_lock:
            self._handles.pop(obj.key, None)
        invalidate_token(token)
        self._rollup_drop(obj.key)
        # Retirement follows the delete, mirroring the commit order on
        # the write side: a crash at ``tier.delete`` leaves the part
        # present and its node unretired — still consistent.
        cat = self.lineage
        if cat is not None:
            cat.retire(cat.part_node(self.OCEAN_BUCKET, obj.key))
        # Rewrites (compact/split) bump here via their input deletes;
        # their commit put alone changes no query answer, so one bump
        # per committed transition is enough.
        self._bump_version()

    # -- maintenance ------------------------------------------------------------------

    def sweep_superseded(self, name: str | None = None) -> int:
        """Garbage-collect parts superseded by a committed rewrite.

        This is the recovery half of the rewrite protocol: after a
        crash between a rewrite's commit put and its deletes, the old
        parts are still present but tombstoned.  Deletion runs
        bottom-up — a superseded part is removed only once every key
        *it* replaces is gone, so removing a mid-chain part can never
        resurrect its grandparents — looping until a pass makes no
        progress.  Returns the number of parts collected.
        """
        if name is None:
            with self._registry_lock:
                names = list(self._datasets)
        else:
            names = [name]
        removed = 0
        for dataset in names:
            removed += self._sweep_one(dataset)
        return removed

    def _sweep_one(self, name: str) -> int:
        removed = 0
        while True:
            metas = self.ocean.list(self.OCEAN_BUCKET, prefix=f"{name}/")
            present = {m.key for m in metas}
            dead = self._superseded(metas)
            progress = False
            for m in metas:
                if m.key not in dead:
                    continue
                replaces = manifest.replaces_from_meta(
                    m.user_meta.get(manifest.REPLACES_META_KEY)
                )
                if replaces and any(k in present for k in replaces):
                    continue  # its own targets first (bottom-up)
                self._delete_part(m)
                present.discard(m.key)
                progress = True
                removed += 1
            if not progress:
                return removed

    def compact(self, name: str, min_objects: int = 4) -> dict[str, int]:
        """Merge the newest of a dataset's live OCEAN parts into one object.

        Streaming ingestion leaves many small objects per dataset; small
        objects hurt scan throughput and metadata overhead (the §V data
        management lesson).  Compaction picks a size-tiered *suffix* of
        the live parts in ingest order (:func:`merge_suffix`, decided
        from manifests alone), reads those parts, writes their union in
        (ingest epoch, event time) order — so retention spans stay
        contiguous and zone maps over the time column get tight; inputs
        that already are in that order, end to end, are streamed into
        the output a row group at a time, anything else is sorted first
        — and commits one combined RCF object whose ``replaces`` entry
        tombstones the inputs before they are deleted.  Equal-sized or
        sub-row-group parts all join, so a first compaction merges
        everything; a part that already holds more ingest epochs than
        all newer parts together is left alone until they catch up.
        Because only a suffix is ever merged, part order stays ingest
        order and scans return rows in the order the uncompacted store
        would.  No-op unless ``min_objects`` live parts exist, counting
        everything older than the suffix as one.

        Returns ``{"merged": n_parts, "bytes_before": .., "bytes_after": ..}``.
        """
        from repro.obs import TRACER
        from repro.perf import PERF

        with TRACER.span("tier.compact", dataset=name):
            with PERF.timer("tier.compact"):
                return self._compact_impl(name, min_objects)

    def _compact_impl(self, name: str, min_objects: int) -> dict[str, int]:
        from repro.perf import PERF

        meta = self._meta(name)
        policy = self.policies[meta.data_class]
        parts = self._live_parts(name)
        # Selection reads manifests only: no blob is fetched to decide.
        # A legacy part without spans is one epoch of unknown size.
        shapes: list[tuple[int, int | None]] = []
        for p in parts:
            spans = self._part_spans(p)
            shapes.append(
                (len(spans), sum(n for _, n in spans)) if spans else (1, None)
            )
        n_merge = merge_suffix(shapes, policy.row_group_size, min_objects)
        if n_merge == 0:
            return {"merged": 0, "bytes_before": 0, "bytes_after": 0}
        parts = parts[-n_merge:]
        bytes_before = sum(p.size for p in parts)
        blobs = [self.ocean.get(self.OCEAN_BUCKET, p.key) for p in parts]
        readers = [RcfReader(b) for b in blobs]
        runs = [
            self._part_spans(p, r.num_rows) or ((p.created_at, r.num_rows),)
            for p, r in zip(parts, readers)
        ]
        n_rows = sum(r.num_rows for r in readers)
        # The sort below is the identity, and the gather a copy, when
        # the inputs' rows are in (span epoch, time) order as they
        # stand — which costs one pass over the time column to prove.
        merged_spans = _merge_runs(runs)
        rises = _epoch_rises(merged_spans)
        provable = (
            rises is not None
            and all(r.schema == readers[0].schema for r in readers)
            and (self.time_column, False) in readers[0].schema
        )
        blob = combined = sorted_spans = None
        spliced = 0
        # A rollup partial's float bits depend on the table it is
        # aggregated from, so a dataset with a rollup still gets one.
        if provable and not self._rollups_for(name):
            writer = RcfWriter(policy.codec, policy.row_group_size)
            # The first input's full row groups are the output's: they
            # are copied, not decoded and encoded again — all but its
            # last group, which is decoded so that the dtype check
            # speaks for this input too.
            spliced = writer.append_encoded(
                readers[0], readers[0].num_row_groups - 1
            )
            try:
                blob = _write_groups(
                    writer, self._groups_in_order(readers, rises, spliced)
                )
            except _NotStreamable:
                spliced = 0
        if blob is None:
            combined = ColumnTable.concat([read_table(b) for b in blobs])
            if not provable or not _time_in_order(
                np.asarray(combined[self.time_column], dtype=np.float64),
                0,
                -np.inf,
                rises,
            ):
                combined, sorted_spans = self._sort_by_epoch(combined, runs)
            blob = _write_groups(
                RcfWriter(policy.codec, policy.row_group_size), [combined]
            )
        out_spans = sorted_spans or merged_spans
        PERF.count(
            "tier.compact.merges_resorted"
            if sorted_spans
            else "tier.compact.merges_in_order"
        )
        key = f"{name}/part-{self._allocate_part(meta):08d}.rcf"
        user_meta = {
            "dataset": name,
            "class": meta.data_class.value,
            "compacted_from": str(len(parts)),
        }
        user_meta.update(manifest.part_meta(combined, blob))
        user_meta[manifest.SPANS_META_KEY] = manifest.spans_to_meta(out_spans)
        user_meta[manifest.REPLACES_META_KEY] = manifest.replaces_to_meta(
            [p.key for p in parts]
        )
        # The commit point: once this put lands, the inputs are dead —
        # readers exclude them via ``replaces`` — and the deletes below
        # are garbage collection that sweep_superseded can resume.
        call_with_retry(
            lambda: self.ocean.put(
                self.OCEAN_BUCKET,
                key,
                blob,
                created_at=out_spans[-1][0],
                user_meta=user_meta,
            ),
            policy=self.retry_policy,
            site="tier.ocean.put",
        )
        PERF.count("tier.compact.parts_merged", len(parts))
        PERF.count("tier.compact.rows_rewritten", n_rows)
        PERF.count("tier.compact.bytes_rewritten", len(blob))
        if spliced:
            PERF.count("tier.compact.groups_spliced", spliced)
            PERF.count(
                "tier.compact.rows_spliced", spliced * policy.row_group_size
            )
        if combined is not None:
            self._rollup_observe(name, key, combined)
        self._lineage_part(
            name, key, n_rows, replaces=tuple(p.key for p in parts)
        )
        for p, old_blob in zip(parts, blobs):
            self._delete_part(p, old_blob)
        return {
            "merged": len(parts),
            "bytes_before": bytes_before,
            "bytes_after": len(blob),
        }

    def _groups_in_order(
        self, readers: Sequence[RcfReader], rises: np.ndarray, spliced: int
    ) -> Iterator[ColumnTable]:
        """The inputs' row groups, one decoded at a time, for as long
        as their rows keep (span epoch, time) order
        (:class:`_NotStreamable` at the first that does not).  The
        first ``spliced`` groups are in the output already: only their
        time column is decoded, for the proof."""
        row, prev_ts = 0, -np.inf
        for reader in readers:
            for g in range(reader.num_row_groups):
                copied = reader is readers[0] and g < spliced
                if copied:
                    ts = reader.decode_group_column(g, self.time_column)
                else:
                    piece = reader.read_group(g)
                    ts = piece[self.time_column]
                ts = np.asarray(ts, dtype=np.float64)
                if not _time_in_order(ts, row, prev_ts, rises):
                    raise _NotStreamable
                row, prev_ts = row + ts.size, ts[-1]
                if not copied:
                    yield piece

    def _sort_by_epoch(
        self, combined: ColumnTable, runs: Sequence[Sequence[tuple[float, int]]]
    ) -> tuple[ColumnTable, list[tuple[float, int]]]:
        """``combined`` stably sorted by (span epoch, time), and the
        spans of the result."""
        created = np.concatenate(
            [
                np.repeat([c for c, _ in spans], [n for _, n in spans])
                for spans in runs
            ]
        )
        if self.time_column in combined.column_names:
            ts = np.asarray(combined[self.time_column], dtype=np.float64)
            order = np.lexsort((ts, created))
        else:
            order = np.argsort(created, kind="stable")
        created = created[order]
        bounds = np.flatnonzero(np.diff(created)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [created.size]))
        return combined.take(order), [
            (float(created[s]), int(e - s)) for s, e in zip(starts, ends)
        ]

    # -- accounting -------------------------------------------------------------------

    def footprint(self) -> dict[str, int]:
        """Approximate bytes held per tier."""
        return {
            "lake": self.lake.nbytes(),
            "ocean": self.ocean.total_bytes(),
            "glacier": self.glacier.total_bytes(),
        }
