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
import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.columnar.file_format import RcfReader, read_table, write_table
from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.perf import baseline
from repro.query import ScanOptions, execute_plan, invalidate_token, plan_parts
from repro.storage import manifest
from repro.storage.compaction import merge_parts, merge_suffix
from repro.storage.glacier import TapeArchive
from repro.storage.lake import TimeSeriesLake
from repro.storage.object_store import ObjectStore
from repro.storage.parts import LivePart, PartTable
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
            if v is not None and not v > 0:  # refuses NaN too
                raise ValueError("retention must be positive or None")
        if self.row_group_size <= 0:
            raise ValueError("row_group_size must be positive")
        if self.compact_min_parts < 2:
            raise ValueError("compact_min_parts must be at least 2")
        if self.freeze_after_s is not None and not self.freeze_after_s > 0:
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
        #: Every record derived from an OCEAN part (see :mod:`.parts`).
        self._parts = PartTable(self.OCEAN_BUCKET)
        # Callers may drive ``register`` and ``ingest`` from their own
        # threads; all registry access — including part-number
        # allocation — goes through this lock.
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
        """Declare a dataset and its medallion class.

        Part numbers resume after the highest its keys already hold in
        OCEAN or GLACIER (``@expired`` included): a store reopened over
        its tiers must not mint a key that exists, nor one whose archive
        :meth:`enforce` would take for the new part's and delete it."""
        own = re.compile(rf"{re.escape(name)}/part-(\d+)\.rcf(@expired)?")
        keys = [p.key for p in self._parts.listing(self.ocean, name).present]
        taken = [
            int(m.group(1))
            for m in map(own.fullmatch, keys + self.glacier.keys())
            if m is not None
        ]
        with self._registry_lock:
            if name in self._datasets:
                raise ValueError(f"dataset {name!r} already registered")
            self._datasets[name] = _DatasetMeta(
                name, data_class, max(taken, default=-1) + 1
            )

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
        from repro.obs import METRICS, TRACER

        with TRACER.span(f"tier.ingest:{name}", rows=table.num_rows):
            with METRICS.timer("tier.ingest"):
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
            blob = write_table(
                table, codec=policy.codec, row_group_size=policy.row_group_size
            )
            self._commit_part(
                meta, table, blob, [(now, table.num_rows)], batch_now=now
            )
            placed["ocean"] = True
        if placed["lake"] or placed["ocean"]:
            self._bump_version()
        return placed

    # -- live part set ------------------------------------------------------------

    def _live_parts(self, name: str) -> tuple[LivePart, ...]:
        """A dataset's OCEAN parts minus superseded ones, in ingest
        order (see :class:`repro.storage.parts.Listing`)."""
        return self._parts.listing(self.ocean, name).live

    # -- lineage recording --------------------------------------------------------

    def _lineage_partial(
        self, rollup: str, part_key: str, span: str | None = None
    ) -> str | None:
        """Record one rollup partial, derived from its source part —
        where the partial is made (commit, backfill) and when a rebuilt
        catalog adopts it (:meth:`reconcile_lineage`); a query only
        links it."""
        cat = self.lineage
        if cat is None:
            return None
        nid = cat.record(
            "rollup_partial",
            (rollup, part_key),
            attrs={"rollup": rollup, "key": part_key},
            span=span,
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
        serving lineage queries, and every rollup partial the store
        holds, derived from its part.  Idempotent (recording merges),
        returns the number of parts visited.
        """
        cat = self.lineage
        if cat is None:
            return 0
        with self._registry_lock:
            names = sorted(self._datasets)
        adopted = 0
        for name in names:
            for part in self._parts.listing(self.ocean, name).present:
                nid = cat.record(
                    "part",
                    (self.OCEAN_BUCKET, part.key),
                    attrs={"dataset": name, "key": part.key},
                    span="",
                )
                if part.replaces:
                    cat.supersede(
                        nid,
                        [cat.part_node(self.OCEAN_BUCKET, k) for k in part.replaces],
                    )
                adopted += 1
        with self._rollup_lock:
            rollups = sorted(self._rollups.items())
        for rollup, ru in rollups:
            for key in sorted(ru.part_keys()):
                self._lineage_partial(rollup, key, span="")
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
        (row-group pruning, late materialization, cache), each run of
        small parts as one row group (:meth:`.parts.Listing.runs`).  Under
        ``baseline_mode`` every part is fetched and the reference
        executor decodes everything.

        Parts superseded by an in-flight rewrite are excluded before
        planning, so a crash between a compaction's commit put and its
        garbage-collection deletes never yields duplicate rows.
        """
        from repro.obs import METRICS, TRACER

        with TRACER.span("query.archive", dataset=name):
            with METRICS.timer("tier.query_archive"):
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
        from repro.obs import METRICS

        listing = self._parts.listing(self.ocean, name)
        parts = listing.live
        if columns is None and parts:
            names = parts[0].columns
            columns = None if names is None else list(names)
        # The zone map lists only the parts the manifests keep; under
        # baseline_mode every part is listed, and so fetched.
        plan = plan_parts(
            name,
            listing.zone_map,
            t0,
            t1,
            predicate,
            columns,
            self.time_column,
        )
        fetch_all = baseline.active()
        fetched: list[LivePart] = []
        for unit in plan.units:
            part = parts[unit.index]
            unit.blob = self.ocean.get(self.OCEAN_BUCKET, unit.key)
            if not fetch_all:
                # The oracle decodes the fetched bytes itself, so what
                # it checks never depends on a handle.
                unit.reader = part.open(unit.blob)
            fetched.append(part)
        if plan.unlisted:
            METRICS.inc("ocean.parts_pruned", plan.unlisted)
        with self._registry_lock:
            meta = self._datasets.get(name)
        if meta is not None and not fetch_all:
            # The tail of small parts, scanned a run at a time (fetch and
            # open stayed per part above): at most what one compacted
            # row group would hold.
            plan.runs = listing.runs(self.policies[meta.data_class].row_group_size)
        if plan.columns is None:
            # Pre-manifest parts: recover the projection from the first
            # fetched header so empty results still carry the schema.
            first = plan.units[0] if plan.units else None
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
                [part.lineage_node for part in fetched],
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
        from repro.obs import METRICS, TRACER

        with TRACER.span("tier.rollup", rollup=name):
            with METRICS.timer("tier.query_rollup"):
                return self._query_rollup_impl(name)

    def _query_rollup_impl(self, name: str) -> ColumnTable:
        from repro.obs import METRICS

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
            METRICS.inc("rollup.parts_backfilled", backfilled)
        result = ru.merged()
        nid = None
        if self.lineage is not None:
            # The answer reads every live partial.  Their nodes were
            # recorded where the partials were made (the commit, the
            # backfill above, or reconcile_lineage's adoption); their
            # ids are derived once per rollup version.
            nid = self._lineage_query(
                "rollup", name, "", ru.partial_nodes(), result.num_rows
            )
        self._note_read(nid)
        return result

    def _rollups_for(self, source: str) -> list[GoldRollup]:
        with self._rollup_lock:
            return [r for r in self._rollups.values() if r.spec.source == source]

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
            for part in self._live_parts(name):
                spans = part.spans
                blob = None
                if spans is not None:
                    expired = sum(1 for created, _ in spans if created < horizon)
                    if 0 < expired < len(spans):
                        blob = self.ocean.get(self.OCEAN_BUCKET, part.key)
                        spans = part.spans_for(RcfReader(blob).num_rows)
                if spans is None:
                    expired = 0 if part.created_at >= horizon else 1
                    whole = expired == 1
                else:
                    whole = expired == len(spans)
                if expired == 0:
                    continue
                if whole:
                    if policy.glacier:
                        # An archive already there is this part's, from
                        # an attempt that crashed before its delete.
                        if not self.glacier.exists(part.key):
                            if blob is None:
                                blob = self.ocean.get(self.OCEAN_BUCKET, part.key)
                            self.glacier.archive(
                                part.key, blob, created_at=part.created_at
                            )
                        report["ocean_archived"] += 1
                    else:
                        report["ocean_deleted"] += 1
                    self._retire(part, blob)
                else:
                    self._split_expired(meta, policy, part, blob, spans, expired)
                    report["ocean_rewritten"] += 1
        return report

    def _split_expired(
        self,
        meta: _DatasetMeta,
        policy: TierPolicy,
        part: LivePart,
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
        ``replaces=[key]`` — the commit point, (3) retire the old part.
        A crash anywhere leaves every row in exactly one live place.
        """
        table = read_table(blob)
        cut = sum(n for _, n in spans[:n_expired])
        if policy.glacier:
            archive_key = f"{part.key}@expired"
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
        rem_blob = write_table(
            remainder, codec=policy.codec, row_group_size=policy.row_group_size
        )
        self._commit_part(
            meta, remainder, rem_blob, spans[n_expired:], replaces=(part.key,)
        )
        self._retire(part, blob)

    # -- part commit and retirement ---------------------------------------------------

    def _commit_part(
        self,
        meta: _DatasetMeta,
        table: ColumnTable | None,
        blob: bytes,
        spans: Sequence[tuple[float, int]],
        *,
        replaces: tuple[str, ...] = (),
        batch_now: float | None = None,
        compacted_from: int | None = None,
    ) -> None:
        """Put one new part and record it — the commit of ingest,
        retention's split and compaction.

        ``spans`` cover every row (the last one's epoch is the part's
        ``created_at``); bounds come from ``table``, or from ``blob``'s
        row groups when a streamed merge holds none.  The put is the
        commit point: rollup partials, then the lineage node — linked to
        the batch of ``(dataset, batch_now)``, superseding ``replaces``
        — are recorded only after it returns."""
        name = meta.name
        key = f"{name}/part-{self._allocate_part(meta):08d}.rcf"
        user_meta = {"dataset": name, "class": meta.data_class.value}
        if compacted_from is not None:
            user_meta["compacted_from"] = str(compacted_from)
        user_meta.update(manifest.part_meta(table, blob))
        user_meta[manifest.SPANS_META_KEY] = manifest.spans_to_meta(spans)
        if replaces:
            user_meta[manifest.REPLACES_META_KEY] = manifest.replaces_to_meta(
                list(replaces)
            )
        call_with_retry(
            lambda: self.ocean.put(
                self.OCEAN_BUCKET,
                key,
                blob,
                created_at=spans[-1][0],
                user_meta=user_meta,
            ),
            policy=self.retry_policy,
            site="tier.ocean.put",
        )
        if table is not None:
            for ru in self._rollups_for(name):
                ru.observe_part(key, table)
                self._lineage_partial(ru.spec.name, key)
        cat = self.lineage
        if cat is not None:
            rows = sum(n for _, n in spans)
            nid = cat.record(
                "part",
                (self.OCEAN_BUCKET, key),
                attrs={"dataset": name, "key": key, "rows": rows},
            )
            if batch_now is not None:
                bid = cat.record("batch", (name, batch_now), attrs={"dataset": name})
                cat.link(bid, nid, "derived")
            if replaces:
                cat.supersede(
                    nid, [cat.part_node(self.OCEAN_BUCKET, k) for k in replaces]
                )

    def _retire(self, part: LivePart, blob: bytes | None = None) -> None:
        """Delete one OCEAN part and drop everything derived from it —
        the one deletion site of compaction, retention and the sweep.

        In order: the delete; the read handle (the record goes with the
        next listing); the cached row groups under
        :meth:`LivePart.token`; the rollup partials; the lineage node;
        the data version.  Each drop follows the delete, so a crash at
        ``tier.delete`` leaves everything in place for the sweep.  A
        never-opened pre-manifest part's blob is fetched *before* the
        delete: nothing else can give its token."""
        token = part.token(blob)
        if not token and blob is None:
            token = manifest.blob_token(self.ocean.get(self.OCEAN_BUCKET, part.key))
        self.ocean.delete(self.OCEAN_BUCKET, part.key)
        self._parts.forget(part)
        invalidate_token(token)
        with self._rollup_lock:
            rollups = list(self._rollups.values())
        cat = self.lineage
        for ru in rollups:
            ru.drop_part(part.key)
            if cat is not None:
                cat.retire(cat.partial_node(ru.spec.name, part.key))
        if cat is not None:
            cat.retire(part.lineage_node)
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
            listing = self._parts.listing(self.ocean, name)
            present = {p.key for p in listing.present}
            progress = False
            for part in listing.present:
                if part.key not in listing.dead:
                    continue
                if any(k in present for k in part.replaces or ()):
                    continue  # its own targets first (bottom-up)
                self._retire(part)
                present.discard(part.key)
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
        (:func:`repro.storage.compaction.merge_parts`) — and commits one
        combined RCF object whose ``replaces`` entry tombstones the
        inputs before they are retired.  Equal-sized or
        sub-row-group parts all join, so a first compaction merges
        everything; a part that already holds more ingest epochs than
        all newer parts together is left alone until they catch up.
        Because only a suffix is ever merged, part order stays ingest
        order and scans return rows in the order the uncompacted store
        would.  No-op unless ``min_objects`` live parts exist, counting
        everything older than the suffix as one.

        Returns ``{"merged": n_parts, "bytes_before": .., "bytes_after": ..}``.
        """
        from repro.obs import METRICS, TRACER

        with TRACER.span("tier.compact", dataset=name):
            with METRICS.timer("tier.compact"):
                return self._compact_impl(name, min_objects)

    def _compact_impl(self, name: str, min_objects: int) -> dict[str, int]:
        from repro.obs import METRICS

        meta = self._meta(name)
        policy = self.policies[meta.data_class]
        parts = self._live_parts(name)
        # Selection reads manifests only: no blob is fetched to decide.
        # A legacy part without spans is one epoch of unknown size.
        shapes = [
            (len(p.spans), sum(n for _, n in p.spans)) if p.spans else (1, None)
            for p in parts
        ]
        n_merge = merge_suffix(shapes, policy.row_group_size, min_objects)
        if n_merge == 0:
            return {"merged": 0, "bytes_before": 0, "bytes_after": 0}
        parts = parts[-n_merge:]
        blobs = [self.ocean.get(self.OCEAN_BUCKET, p.key) for p in parts]
        # Readers of the merge's own: a handle would hash unasked bytes.
        readers = [RcfReader(b) for b in blobs]
        runs = [
            p.spans_for(r.num_rows) or ((p.created_at, r.num_rows),)
            for p, r in zip(parts, readers)
        ]
        # A rollup partial's float bits depend on the table it is
        # aggregated from, so a dataset with a rollup still gets one.
        materialize = bool(self._rollups_for(name))
        merged = merge_parts(readers, runs, policy, self.time_column, materialize)
        METRICS.inc(
            "tier.compact.merges_resorted"
            if merged.resorted
            else "tier.compact.merges_in_order"
        )
        # The commit point: once this put lands, the inputs are dead —
        # readers exclude them via ``replaces`` — and retiring them below
        # is garbage collection that sweep_superseded can resume.
        self._commit_part(
            meta, merged.table, merged.blob, merged.spans,
            replaces=tuple(p.key for p in parts), compacted_from=len(parts),
        )
        METRICS.inc("tier.compact.parts_merged", len(parts))
        METRICS.inc("tier.compact.rows_rewritten", sum(r.num_rows for r in readers))
        METRICS.inc("tier.compact.bytes_rewritten", len(merged.blob))
        if merged.spliced:
            METRICS.inc("tier.compact.groups_spliced", merged.spliced)
            METRICS.inc(
                "tier.compact.rows_spliced", merged.spliced * policy.row_group_size
            )
        for p, blob in zip(parts, blobs):
            self._retire(p, blob)
        return {
            "merged": len(parts),
            "bytes_before": sum(p.meta.size for p in parts),
            "bytes_after": len(merged.blob),
        }

    # -- accounting -------------------------------------------------------------------

    def footprint(self) -> dict[str, int]:
        """Approximate bytes held per tier."""
        return {
            "lake": self.lake.nbytes(),
            "ocean": self.ocean.total_bytes(),
            "glacier": self.glacier.total_bytes(),
        }
