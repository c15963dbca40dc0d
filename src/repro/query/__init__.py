"""The read plane: scan planning and execution over LAKE and OCEAN.

PR 1 made the write plane batched and parallel; this package is its
read-side counterpart (DESIGN.md §11).  A query — (table, time range,
predicate, columns) — is first *planned* into an explicit
:class:`~repro.query.plan.ScanPlan` naming every segment and part it
could touch, then *executed* with multi-level pruning (part manifests,
row-group stats), late materialization (predicate columns first) and
a bounded cache of decoded row groups.

Layering: ``repro.query`` depends only on ``repro.columnar`` (plus the
perf spine); ``repro.storage`` builds plans from its metadata and feeds
fetched bytes in, so the object store stays dumb and the planner stays
storage-agnostic.
"""

from repro.query.cache import (
    clear_row_group_cache,
    invalidate_token,
    row_group_cache_stats,
    set_row_group_cache_limit,
)
from repro.query.executor import (
    ScanOptions,
    execute_plan,
    execute_plan_reference,
    shutdown_scan_pool,
)
from repro.query.plan import PartRun, PartUnit, ScanPlan, SegmentUnit
from repro.query.planner import plan_parts, plan_segments
from repro.query.scan import fold_time_predicate, scan_segment
from repro.query.zonemap import ZoneMap

__all__ = [
    "ScanPlan",
    "SegmentUnit",
    "PartUnit",
    "PartRun",
    "plan_segments",
    "plan_parts",
    "ZoneMap",
    "ScanOptions",
    "execute_plan",
    "execute_plan_reference",
    "shutdown_scan_pool",
    "fold_time_predicate",
    "scan_segment",
    "invalidate_token",
    "clear_row_group_cache",
    "row_group_cache_stats",
    "set_row_group_cache_limit",
]
