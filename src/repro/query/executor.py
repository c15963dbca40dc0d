"""Plan execution — the fast path and its decode-everything oracle.

:func:`execute_plan` is the production path: pruned units are skipped
and live units run through the late-materializing scan kernels, one
after another in plan order.

:func:`execute_plan_reference` is the oracle: every unit is scanned —
pruned flags ignored — by fully decoding the data and applying the
exact masks serially.  Equality between the two paths therefore
validates the planner's pruning decisions, the dictionary pushdown, and
the cache in one assertion.  Under ``repro.perf.baseline_mode()``
:func:`execute_plan` routes through the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar.file_format import read_table
from repro.columnar.table import ColumnTable
from repro.obs import TRACER
from repro.perf import PERF, baseline
from repro.query.plan import ScanPlan, SegmentUnit
from repro.query.scan import scan_part, scan_segment

__all__ = [
    "ScanOptions",
    "execute_plan",
    "execute_plan_reference",
    "shutdown_scan_pool",
]


@dataclass(frozen=True)
class ScanOptions:
    """Retired scan-executor selector, kept only because the frozen
    ``benchmarks/full`` harness still constructs it: ``"serial"`` (the
    default) and ``"auto"`` both mean the one serial scan loop;
    ``"threads"`` raises ``ValueError``.
    """

    executor: str = "serial"

    def __post_init__(self) -> None:
        if self.executor not in ("serial", "auto"):
            raise ValueError(
                f"executor must be 'serial' or 'auto', got {self.executor!r}: "
                "scans are single-threaded (DESIGN.md §8, Concurrency model)"
            )

    def resolve_executor(self) -> str:
        """Always ``"serial"`` (the name the full-path bench records)."""
        return "serial"


def shutdown_scan_pool() -> None:
    """Nothing to release; kept because the full-path bench calls it."""


def execute_plan(
    plan: ScanPlan, options: ScanOptions | None = None
) -> ColumnTable:
    """Execute a plan on the fast path (the oracle under
    ``baseline_mode()``); returns the concatenated surviving rows.
    ``options`` selects nothing (see :class:`ScanOptions`)."""
    with TRACER.span(
        "query.execute", table=plan.table, units=len(plan.units)
    ):
        if baseline.active():
            return execute_plan_reference(plan)
        with PERF.timer("query.scan"):
            return _execute_plan_impl(plan)


def _execute_plan_impl(plan: ScanPlan) -> ColumnTable:
    pieces = []
    for unit in plan.units:
        if unit.pruned:
            if isinstance(unit, SegmentUnit):
                PERF.count("query.segments_pruned")
            continue
        if isinstance(unit, SegmentUnit):
            PERF.count("query.segments_scanned")
            piece = scan_segment(
                unit.table,
                plan.time_column,
                plan.t0,
                plan.t1,
                plan.predicate,
                plan.columns,
                unit.row_lo,
                unit.row_hi,
            )
        else:
            PERF.count("query.parts_scanned")
            piece = scan_part(
                unit.blob,
                plan.time_column,
                plan.t0,
                plan.t1,
                plan.predicate,
                plan.columns,
                reader=unit.reader,
            )
        if piece is not None and piece.num_rows:
            pieces.append(piece)
    if not pieces:
        return _empty_result(plan)
    return ColumnTable.concat(pieces)


def execute_plan_reference(plan: ScanPlan) -> ColumnTable:
    """Scan every unit — pruned flags and segment row ranges ignored —
    with full decode and exact masks over every row, serially.  Part
    units must carry fetched blobs (the storage layer fetches
    everything under ``baseline_mode()``); a missing blob
    raises rather than silently trusting the pruning decision under
    test.
    """
    pieces: list[ColumnTable] = []
    for unit in plan.units:
        if isinstance(unit, SegmentUnit):
            table = unit.table
            apply_time = True
        else:
            if unit.blob is None:
                raise ValueError(
                    f"reference scan of {unit.key!r} requires its blob; "
                    "pruned parts are not fetched outside reference mode"
                )
            table = read_table(unit.blob)
            apply_time = plan.t0 is not None or plan.t1 is not None
        mask = None
        if apply_time:
            ts = table[plan.time_column]
            lo = -np.inf if plan.t0 is None else plan.t0
            hi = np.inf if plan.t1 is None else plan.t1
            mask = (ts >= lo) & (ts < hi)
        if plan.predicate is not None:
            pm = plan.predicate.mask(table)
            mask = pm if mask is None else mask & pm
        if mask is not None:
            if not mask.any():
                continue
            table = table.filter(mask)
        if plan.columns is not None:
            table = table.select(plan.columns)
        if table.num_rows:
            pieces.append(table)
    if not pieces:
        return _empty_result(plan)
    return ColumnTable.concat(pieces)


def _empty_result(plan: ScanPlan) -> ColumnTable:
    """The canonical zero-row result both executors share: requested
    columns as empty arrays when the projection is known, else an empty
    schema-less table."""
    if plan.columns is not None:
        return ColumnTable({n: np.empty(0) for n in plan.columns})
    return ColumnTable({})
