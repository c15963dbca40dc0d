"""Scan plans: the explicit middle step between a query and its I/O.

A :class:`ScanPlan` is the planner's answer to "what would this query
touch?" — every LAKE segment or OCEAN part the request *could* read,
each flagged ``pruned`` when statistics prove no row can match.  Keeping
pruned units in the plan (rather than dropping them) buys two things:

* the reference executor can ignore the flags and scan everything, so a
  fast/reference equality test validates the pruning decisions
  themselves, and
* per-query telemetry (how many units were skipped, and why) falls out
  of the plan instead of being threaded through the scan loops.

A plan over a zone map (:class:`~repro.query.zonemap.ZoneMap`) is the
one exception: it lists only the parts it keeps and counts the rest, so
its cost follows the parts a query touches, not the dataset's size.

Plans hold data by reference (in-memory segment tables, fetched part
blobs); they are cheap to build and single-use.  A plan over OCEAN
parts may also name *runs* (:class:`PartRun`): consecutive small parts
the executor scans as one row group.  Runs group units, they never
replace them — every listed part keeps its unit, its prune flag and its
fetch; a run names its members by part index, so an unlisted member is
one the zone map pruned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from repro.columnar.file_format import RcfReader
from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.query.scan import fold_time_predicate

__all__ = ["SegmentUnit", "PartUnit", "PartRun", "ScanPlan"]


@dataclass
class SegmentUnit:
    """One LAKE segment a query may touch.

    ``[row_lo, row_hi)`` (``None`` = to the end) is the row range the
    planner's piece index could not rule out; the fast executor masks
    only those rows, the reference executor masks the whole table.
    """

    index: int
    t_min: float
    t_max: float
    table: ColumnTable
    pruned: bool = False
    reason: str = ""
    row_lo: int = 0
    row_hi: int | None = None


@dataclass
class PartUnit:
    """One OCEAN part file a query may touch.

    ``stats`` are the part-level manifest bounds (JSON-decoded, possibly
    None for pre-manifest objects).  ``blob`` starts None; the caller
    fetches bytes for the units it intends to scan — a unit pruned from
    manifest stats is *never* fetched, which is the whole point.
    ``reader`` is an already-open reader over exactly ``blob`` when the
    caller keeps one (the fast path scans through it instead of opening
    its own; the reference executor ignores it).  ``index`` is the
    part's position in the list the plan was made from — what a run's
    first-member index counts — or -1 for a unit in no run.
    """

    key: str
    size: int
    stats: Mapping | None
    pruned: bool = False
    reason: str = ""
    blob: bytes | None = None
    reader: RcfReader | None = None
    index: int = -1


@dataclass(eq=False)
class PartRun:
    """Consecutive one-row-group OCEAN parts scanned as one row group.

    ``digests`` are the members' manifest digests in row order,
    ``offsets`` each member's first row in the run followed by the
    run's row count, and ``token`` — the digests joined, which no part
    digest can equal — keys the run's concatenated columns in the
    row-group cache.  Members must agree on every column's dtype, which
    only a decode shows: the first scan that finds a disagreement sets
    ``mixed``, and from then on the members are scanned part by part.
    """

    digests: tuple[str, ...]
    offsets: tuple[int, ...]
    token: str
    mixed: bool = False

    @classmethod
    def of(cls, digests: Sequence[str], rows: Sequence[int]) -> "PartRun":
        """The run of members with these digests and row counts."""
        offsets = [0]
        for n in rows:
            offsets.append(offsets[-1] + n)
        return cls(tuple(digests), tuple(offsets), "+".join(digests))

    @property
    def size(self) -> int:
        """Member count."""
        return len(self.digests)


@dataclass
class ScanPlan:
    """What one query will read, unit by unit."""

    table: str
    source: str  # "lake" | "ocean"
    t0: float | None
    t1: float | None
    predicate: Predicate | None
    columns: list[str] | None
    time_column: str
    units: list = field(default_factory=list)
    #: ``(index of the first member's part, run)`` pairs, in part order.
    runs: Sequence[tuple[int, PartRun]] = ()
    #: Parts a zone-map plan pruned without listing a unit for them.
    unlisted: int = 0

    @cached_property
    def scan_predicate(self) -> Predicate | None:
        """The predicate with the ``[t0, t1)`` window folded in
        (:func:`~repro.query.scan.fold_time_predicate`): what part
        manifests and row-group stats are tested against.  Folded on
        first use, once per plan."""
        return fold_time_predicate(
            self.predicate, self.time_column, self.t0, self.t1
        )

    @property
    def pruned_units(self) -> int:
        """Units statistics excluded from the scan, listed or not."""
        return self.unlisted + sum(1 for u in self.units if u.pruned)

    @property
    def live_units(self) -> int:
        """Units the fast executor will actually scan."""
        return sum(1 for u in self.units if not u.pruned)

    def summary(self) -> dict:
        """JSON-ready description (for benches and the dashboard)."""
        return {
            "table": self.table,
            "source": self.source,
            "t0": self.t0,
            "t1": self.t1,
            "columns": self.columns,
            "units": len(self.units) + self.unlisted,
            "pruned": self.pruned_units,
            "live": self.live_units,
        }
