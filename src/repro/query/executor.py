"""Plan execution — the fast path and its decode-everything oracle.

:func:`execute_plan` is the production path: pruned units are skipped
and live units run through the late-materializing scan kernels, one
after another in plan order.  The live members of a run of small parts
(:class:`~repro.query.plan.PartRun`) are scanned as one row group over
the run's concatenated columns, which the row-group cache keeps under
the run's token.  What does not depend on a unit is paid
once per plan: the time window folds into the predicate once
(:attr:`ScanPlan.scan_predicate`, which the planner's manifest prune
already folded); every
surviving row group's projected slices, across all parts, go to one
list per column, and each column is concatenated once at the end
(promoting and normalizing only where dtypes mix, as
:meth:`ColumnTable.concat` does); the work counters are tallied locally
and recorded once.  The result owns its arrays — one fresh copy, even
of a single whole row group — and is never a view of the row-group
cache or of a part's bytes; only :func:`repro.query.scan.gather_part`'s
pieces may hold views.  A LAKE plan's segment scans gather by index
into fresh arrays already, so one segment's rows are returned as they
are.

:func:`execute_plan_reference` is the oracle: every unit is scanned —
pruned flags ignored — by fully decoding the data and applying the
exact masks serially.  Equality between the two paths therefore
validates the planner's pruning decisions, late materialization,
the runs and the cache in one assertion.  Under ``repro.perf.baseline_mode()``
:func:`execute_plan` routes through the oracle.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.columnar.file_format import RcfReader, read_table
from repro.columnar.table import ColumnTable
from repro.obs import TRACER
from repro.perf import baseline
from repro.query.cache import invalidate_token, load_column
from repro.query.plan import PartRun, PartUnit, ScanPlan, SegmentUnit
from repro.query.scan import gather_part, part_columns, record_tally, scan_segment

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
        "query.execute", table=plan.table, units=len(plan.units) + plan.unlisted
    ):
        if baseline.active():
            return execute_plan_reference(plan)
        return _execute_plan_impl(plan)


def _execute_plan_impl(plan: ScanPlan) -> ColumnTable:
    tally: defaultdict[str, int] = defaultdict(int)
    try:
        if plan.source == "lake":
            return _execute_segments(plan, tally)
        return _execute_parts(plan, tally)
    finally:
        record_tally(tally)


def _execute_segments(plan: ScanPlan, tally: defaultdict) -> ColumnTable:
    """A LAKE plan: each live segment's surviving rows, gathered by
    index into arrays of their own — so one segment's rows are the
    result as they are, and several are concatenated once."""
    found = []
    for unit in plan.units:
        if unit.pruned:
            tally["query.segments_pruned"] += 1
            continue
        tally["query.segments_scanned"] += 1
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
        if piece is not None:
            found.append(piece)
    if not found:
        return _empty_result(plan)
    return found[0] if len(found) == 1 else ColumnTable.concat(found)


def _execute_parts(plan: ScanPlan, tally: defaultdict) -> ColumnTable:
    names: list[str] | None = None
    gathered: list[list[np.ndarray]] = []
    for cols, pieces in _scanned(plan, tally):
        if names is None:
            names, gathered = cols, pieces
        elif cols != names:
            raise ValueError(f"schema mismatch: {cols} != {names}")
        else:
            for into, more in zip(gathered, pieces):
                into.extend(more)
    if names is None:
        return _empty_result(plan)
    return ColumnTable.concat_columns(dict(zip(names, gathered)))


Pieces = tuple[list[str], list[list[np.ndarray]]]


def _scanned(plan: ScanPlan, tally: defaultdict) -> Iterator[Pieces]:
    """Each projected column's surviving slices, per live part or run
    that has any, in plan order.  A run's members are the units whose
    part index falls in it; a zone-map plan lists none for a member it
    pruned."""
    units = plan.units
    runs = iter(plan.runs)
    first, run = next(runs, (0, None))
    i = 0
    while i < len(units):
        index = units[i].index
        while run is not None and first + run.size <= index:
            first, run = next(runs, (0, None))
        if run is None or index < first:
            unit = units[i]
            i += 1
            if not unit.pruned:
                yield from _scan_part(plan, unit, tally)
            continue
        members: list[PartUnit | None] = [None] * run.size
        while i < len(units) and units[i].index < first + run.size:
            members[units[i].index - first] = units[i]
            i += 1
        yield from _scan_run(plan, run, members, tally)


def _scan_part(plan: ScanPlan, unit: PartUnit, tally: defaultdict) -> Iterator[Pieces]:
    tally["query.parts_scanned"] += 1
    reader = unit.reader
    if reader is None:
        reader = RcfReader(unit.blob)
    cols = part_columns(reader, plan.columns)
    pieces = gather_part(reader, plan.scan_predicate, cols, tally)
    if cols and pieces[0]:
        yield cols, pieces


def _scan_run(
    plan: ScanPlan,
    run: PartRun,
    members: list[PartUnit | None],
    tally: defaultdict,
) -> Iterator[Pieces]:
    """Scan a run's live members as one row group where it can be, else
    part by part, as the parts would alone: a mixed run, a run with
    fewer than two live members, a live member whose bytes are not the
    ones the run was made of (digest, one group, row count), or a run
    column neither cached nor buildable (some member not fetched).  A
    member is None where the plan lists no unit for it (pruned)."""
    live = [
        k for k, unit in enumerate(members) if unit is not None and not unit.pruned
    ]
    if (
        not run.mixed
        and len(live) > 1
        and all(_is_member(run, k, members[k].reader) for k in live)
    ):
        scanned = _gather_run(plan, run, members, live, tally)
        if scanned is not None:
            if scanned:
                yield scanned
            return
    for k in live:
        yield from _scan_part(plan, members[k], tally)


def _is_member(run: PartRun, k: int, reader: RcfReader | None) -> bool:
    """Whether ``reader`` holds the bytes member ``k`` of ``run`` was
    derived from: the manifest's digest, one row group of its rows."""
    return (
        reader is not None
        and reader.digest() == run.digests[k]
        and reader.num_row_groups == 1
        and reader.num_rows == run.offsets[k + 1] - run.offsets[k]
    )


def _gather_run(
    plan: ScanPlan,
    run: PartRun,
    members: list[PartUnit | None],
    live: list[int],
    tally: defaultdict,
) -> Pieces | tuple[()] | None:
    """One scan over the live members' row range of ``run``'s cached
    columns: one mask with the folded predicate (a pruned member inside
    the range is one whose rows its manifest proves fail it), one
    ``flatnonzero`` and one ``take`` per projected column.  Returns the
    pieces, ``()`` when no row survives, or None when a column is
    neither cached nor buildable — or the build just found the run
    mixed."""
    cols = part_columns(members[live[0]].reader, plan.columns)
    pred = plan.scan_predicate
    pred_cols = [] if pred is None else sorted(pred.columns())
    readers = [None if unit is None else unit.reader for unit in members]
    buildable = len(live) == len(members)
    columns: dict[str, np.ndarray] = {}
    hits = 0
    for n in dict.fromkeys(pred_cols + cols):
        arr, hit = load_column(
            run.token,
            0,
            n,
            (lambda n=n: _concat_members(run, readers, n)) if buildable else _absent,
            run.digests,
        )
        if arr is None:
            return None
        hits += hit
        columns[n] = arr
    tally["query.cache_hits"] += hits
    tally["query.parts_scanned"] += len(live)
    tally["query.runs_scanned"] += 1
    lo, hi = run.offsets[live[0]], run.offsets[live[-1] + 1]
    if pred is None:
        tally["query.groups_decoded"] += 1
        return cols, [[columns[n][lo:hi]] for n in cols]
    mask = pred.mask(ColumnTable._derived({n: columns[n][lo:hi] for n in pred_cols}))
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        tally["query.groups_empty"] += 1
        return ()
    tally["query.groups_decoded"] += 1
    idx += lo
    return cols, [[columns[n][idx]] for n in cols]


def _absent() -> None:
    """The loader of a run column that cannot be built this scan."""
    return None


def _concat_members(
    run: PartRun, readers: list[RcfReader], name: str
) -> np.ndarray | None:
    """``name``'s run column: the members' chunks, concatenated — or
    None when a member's chunk differs in dtype from the first
    member's: the run is marked mixed and what it cached is released,
    so a column is never promoted across members and the parts promote
    once, in the plan's concatenation, as the oracle's do."""
    chunks = []
    for reader in readers:
        part_columns(reader, [name])  # a member without it: KeyError
        view = reader.raw_view(0, name)
        chunks.append(view if view is not None else reader.decode_group_column(0, name))
    dtype = chunks[0].dtype
    if any(chunk.dtype != dtype for chunk in chunks):
        run.mixed = True
        invalidate_token(run.token)
        return None
    return np.concatenate(chunks)


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
