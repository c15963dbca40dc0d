"""The scan planner: request in, :class:`ScanPlan` out.

Planning is pure metadata work — no blob is fetched and no chunk is
decoded here.  Two entry points mirror the two storage shapes:

* :func:`plan_segments` — LAKE segments carry (t_min, t_max) bounds, so
  pruning is a time-interval test.  Segment start times are sorted
  (ingest enforces it), so segments past the window's upper edge are
  cut by binary search before any unit is even considered.  A segment
  that is a run of ingest pieces also carries its piece index, and the
  same two bisections inside it narrow the unit to the rows of the
  pieces the window overlaps.
* :func:`plan_parts` — OCEAN parts carry per-column min/max manifests;
  the time window folds into the predicate
  (:attr:`~repro.query.plan.ScanPlan.scan_predicate`) and
  ``might_match`` decides.  Given a :class:`~repro.query.zonemap.ZoneMap`
  it decides for every part at once and lists only the parts it keeps.
  A part planned out here is never fetched from the object store.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Sequence

from repro.columnar.predicate import Predicate
from repro.perf import baseline
from repro.query.plan import PartUnit, ScanPlan, SegmentUnit
from repro.query.zonemap import ZoneMap

__all__ = ["plan_segments", "plan_parts"]


def plan_segments(
    table: str,
    segments: Sequence[tuple],
    t0: float | None = None,
    t1: float | None = None,
    predicate: Predicate | None = None,
    columns: list[str] | None = None,
    time_column: str = "timestamp",
) -> ScanPlan:
    """Plan a LAKE query over ``(t_min, t_max, table)`` segments
    (ordered by ``t_min``).

    A segment may add a fourth element, its piece index ``(starts,
    maxes, ends)``: per ingest piece, in row order, the piece's minimum
    time (non-decreasing), the running maximum time up to and including
    it, and the row at which it ends.  Without one the segment is
    treated as a single piece.
    """
    plan = ScanPlan(
        table=table,
        source="lake",
        t0=t0,
        t1=t1,
        predicate=predicate,
        columns=columns,
        time_column=time_column,
    )
    lo = t0 if t0 is not None else float("-inf")
    hi = t1 if t1 is not None else float("inf")
    starts = [seg[0] for seg in segments]
    first = bisect.bisect_right(starts, hi)
    for index, (t_min, t_max, seg_table, *pieces) in enumerate(
        segments[:first]
    ):
        piece_starts, piece_maxes, piece_ends = (
            pieces[0] if pieces else ((t_min,), (t_max,), (seg_table.num_rows,))
        )
        # Pieces before ``begin`` end below the window (every row up to
        # there is <= a running max < lo); pieces from ``end`` on start
        # at or above its open upper edge.
        begin = bisect.bisect_left(piece_maxes, lo)
        end = bisect.bisect_left(piece_starts, hi)
        row_lo = piece_ends[begin - 1] if begin else 0
        row_hi = piece_ends[end - 1] if end else 0
        pruned = row_lo >= row_hi
        plan.units.append(
            SegmentUnit(
                index=index,
                t_min=t_min,
                t_max=t_max,
                table=seg_table,
                pruned=pruned,
                reason="time" if pruned else "",
                row_lo=row_lo,
                row_hi=row_hi,
            )
        )
    return plan


def plan_parts(
    table: str,
    parts: Iterable[tuple[str, int, dict | None]] | ZoneMap,
    t0: float | None = None,
    t1: float | None = None,
    predicate: Predicate | None = None,
    columns: list[str] | None = None,
    time_column: str = "timestamp",
) -> ScanPlan:
    """Plan an OCEAN query over ``(key, size, manifest_stats)`` parts.

    ``manifest_stats`` is the per-part column -> (min, max[, exact])
    mapping persisted at write time, or None for parts that predate the
    manifest (those are always scanned — pruning must stay sound for
    old data).

    Given a list, every part gets a unit, flagged ``pruned`` where its
    ``might_match`` is False.  Given a :class:`ZoneMap`, the folded
    predicate is evaluated over its arrays and only the parts it keeps
    get a unit: the rest are counted in :attr:`ScanPlan.unlisted`,
    never built or visited.  Under ``baseline_mode()`` a zone map is
    planned part by part, as a list is — the oracle plans, fetches and
    scans every part.  Every unit carries its part's position in
    ``parts`` (:attr:`PartUnit.index`), which is what runs name.
    """
    plan = ScanPlan(
        table=table,
        source="ocean",
        t0=t0,
        t1=t1,
        predicate=predicate,
        columns=columns,
        time_column=time_column,
    )
    combined = plan.scan_predicate
    if isinstance(parts, ZoneMap) and not baseline.active():
        if combined is None:
            keep = range(len(parts))
        else:
            keep = parts.might_match(combined).nonzero()[0].tolist()
        listed = parts.parts
        plan.units = [PartUnit(*listed[i], index=i) for i in keep]
        plan.unlisted = len(listed) - len(plan.units)
        return plan
    for index, (key, size, stats) in enumerate(parts):
        pruned = (
            combined is not None
            and stats is not None
            and not combined.might_match(stats)
        )
        plan.units.append(
            PartUnit(
                key=key,
                size=size,
                stats=stats,
                pruned=pruned,
                reason="stats" if pruned else "",
                index=index,
            )
        )
    return plan
