"""Per-unit scan kernels: late materialization over segments and parts.

The part scanner is where the read plane earns its speedup: for each
row group it (1) tests the predicate against the group's min/max stats
— a pruned group costs nothing; (2) evaluates the predicate on *only*
the predicate's own columns, with the same ``Predicate.mask`` the
oracle applies; (3) decodes the remaining projected columns only for
groups with surviving rows.  A chunk whose decode
would only copy it — PLAIN, stored raw, fixed-width numeric or bool —
is read in place as a view of the part's bytes and never cached; every
other chunk is decoded through the bounded row-group cache, so repeated
dashboard queries over the same parts skip the decode entirely, and the
cache's budget goes only to chunks that cost a decode.

:func:`gather_part` is that per-part routine as the plan executor runs
it: it hands back each projected column's surviving slices, whole
chunks (views) where a group passes entirely, and tallies its work
counts for the executor to record once per plan.  Its pieces, unlike
the executor's result, may hold those views.

Soundness contract: a group's mask is ``predicate.mask`` itself, over
the predicate's columns as decoded or read in place, so it equals the
brute-force mask over the fully decoded data — the property tests in
``tests/query`` hold the two paths to byte equality, NaN floats and
null strings included.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.columnar.file_format import RcfReader
from repro.columnar.predicate import And, Compare, Predicate
from repro.columnar.table import ColumnTable
from repro.obs import METRICS
from repro.query.cache import load_column

__all__ = [
    "fold_time_predicate",
    "gather_part",
    "part_columns",
    "record_tally",
    "scan_segment",
]


def fold_time_predicate(
    predicate: Predicate | None,
    time_column: str,
    t0: float | None,
    t1: float | None,
) -> Predicate | None:
    """Fold a ``[t0, t1)`` window into the predicate tree.

    The half-open window becomes ordinary ``Compare`` nodes, so time
    pruning rides the same ``might_match`` machinery as every other
    column — one pruning code path instead of two.
    """
    pred = predicate
    if t1 is not None:
        upper = Compare(time_column, "<", float(t1))
        pred = upper if pred is None else And(upper, pred)
    if t0 is not None:
        lower = Compare(time_column, ">=", float(t0))
        pred = lower if pred is None else And(lower, pred)
    return pred


def scan_segment(
    table: ColumnTable,
    time_column: str,
    t0: float | None,
    t1: float | None,
    predicate: Predicate | None,
    columns: list[str] | None,
    row_lo: int = 0,
    row_hi: int | None = None,
) -> ColumnTable | None:
    """Scan rows ``[row_lo, row_hi)`` of one in-memory LAKE segment;
    None when no row survives.

    Segments are already decoded, so "late materialization" reduces to
    mask-then-gather: the time and predicate mask is evaluated on views
    of the range over the predicate's own columns only (NaN timestamps
    fail the always-applied time mask), turned into one index array,
    and each projected column is gathered once through it.  The row
    range is the planner's claim that no row outside it can match.
    Every result column is a fresh array, never a view of the segment.
    """
    rows = range(table.num_rows)[row_lo:row_hi]  # the range, clamped
    METRICS.inc("lake.rows_scanned", len(rows))
    ts = table[time_column][row_lo:row_hi]
    lo = -np.inf if t0 is None else t0
    hi = np.inf if t1 is None else t1
    mask = (ts >= lo) & (ts < hi)
    if predicate is not None:
        mask &= predicate.mask(
            table.select(predicate.columns()).slice(row_lo, row_hi)
        )
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return None
    idx += rows.start
    if columns is not None:
        table = table.select(columns)
    return table.take(idx)


def part_columns(reader: RcfReader, columns: list[str] | None) -> list[str]:
    """The columns a scan of ``reader``'s part returns: ``columns``, or
    the part's schema; KeyError if the part lacks one asked for."""
    if columns is None:
        return reader.column_names()
    if not reader.column_set.issuperset(columns):
        raise KeyError(f"unknown columns {sorted(set(columns) - reader.column_set)}")
    return columns


def gather_part(
    reader: RcfReader,
    predicate: Predicate | None,
    out_cols: list[str],
    tally: defaultdict,
) -> list[list[np.ndarray]]:
    """Each of ``out_cols``'s surviving slices of one part, one list per
    column with one slice per surviving row group, in group order.

    ``predicate`` already holds the time window
    (:func:`fold_time_predicate`).  A slice is a whole chunk — a view of
    the cache or of the part's bytes — when every row of its group
    passes, else the surviving rows gathered by index.  Group counts,
    and the row-group cache's hits, go to ``tally``
    (see :func:`record_tally`).
    """
    token = reader.digest()
    pred_cols = [] if predicate is None else sorted(predicate.columns())
    pieces: list[list[np.ndarray]] = [[] for _ in out_cols]
    for g in range(reader.num_row_groups):
        idx: np.ndarray | None = None  # None: the whole group passes
        if predicate is not None:
            if not predicate.might_match(reader.group_stats(g)):
                tally["query.groups_pruned"] += 1
                continue
            # The oracle's own mask, over the predicate's columns only.
            mask = predicate.mask(
                ColumnTable._derived(
                    {n: _column(reader, g, n, token, tally) for n in pred_cols}
                )
            )
            kept = np.count_nonzero(mask)
            if kept == 0:
                tally["query.groups_empty"] += 1
                continue
            if kept < mask.size:
                # One index array, then one gather per column: a boolean
                # index would recount the mask for every column.
                idx = np.flatnonzero(mask)
        for n, out in zip(out_cols, pieces):
            arr = _column(reader, g, n, token, tally)
            out.append(arr if idx is None else arr[idx])
        tally["query.groups_decoded"] += 1
    return pieces


def record_tally(tally: dict[str, int]) -> None:
    """Add a scan's tallied work counts to the metrics registry, one
    call per counter — what the scan would have counted one by one."""
    for name, n in tally.items():
        METRICS.inc(name, n)


def _column(
    reader: RcfReader, group: int, name: str, token: str, tally: defaultdict
) -> np.ndarray:
    """One chunk's values: a view into the part's bytes when the chunk
    is stored raw (nothing to decode, so nothing to cache), else the
    cached decode."""
    view = reader.raw_view(group, name)
    if view is not None:
        return view
    arr, hit = load_column(
        token, group, name, lambda: reader.decode_group_column(group, name)
    )
    if hit:
        tally["query.cache_hits"] += 1
    return arr
