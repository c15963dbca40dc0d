"""Per-unit scan kernels: late materialization over segments and parts.

The part scanner is where the read plane earns its speedup: for each
row group it (1) tests the predicate against the group's min/max stats
— a pruned group costs nothing; (2) evaluates the predicate on *only*
the predicate's own columns, pushing ``Compare``/``IsIn`` down to
dictionary codes so a dict-encoded column is judged on its (tiny)
vocabulary instead of its rows; (3) decodes the remaining projected
columns only for groups with surviving rows.  A chunk whose decode
would only copy it — PLAIN, stored raw, fixed-width numeric or bool —
is read in place as a view of the part's bytes and never cached; every
other chunk is decoded through the bounded row-group cache, so repeated
dashboard queries over the same parts skip the decode entirely, and the
cache's budget goes only to chunks that cost a decode.

Soundness contract: every mask computed here must equal the brute-force
``predicate.mask`` over the fully decoded data — the property tests in
``tests/query`` hold the two paths to byte equality, NaN floats and
null strings included.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.file_format import RcfReader
from repro.columnar.predicate import And, Compare, IsIn, Not, Or, Predicate
from repro.columnar.table import ColumnTable
from repro.obs import METRICS
from repro.query.cache import cached_column

__all__ = ["fold_time_predicate", "scan_segment", "scan_part"]


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


def scan_part(
    blob: bytes,
    time_column: str,
    t0: float | None,
    t1: float | None,
    predicate: Predicate | None,
    columns: list[str] | None,
    reader: RcfReader | None = None,
) -> ColumnTable | None:
    """Late-materializing scan of one OCEAN part; None when empty.

    ``reader``, when given, must have been opened on exactly ``blob``;
    passing one saves the open, the header parses and the content hash
    a fresh reader would repeat.

    Arrays in the result may be read-only views of the row-group cache
    or of ``blob`` itself; callers that mutate query output must copy
    first.
    """
    if reader is None:
        reader = RcfReader(blob)
    names = reader.column_names()
    out_cols = list(columns) if columns is not None else names
    unknown = set(out_cols) - set(names)
    if unknown:
        raise KeyError(f"unknown columns {sorted(unknown)}")
    combined = fold_time_predicate(predicate, time_column, t0, t1)
    token = reader.digest()
    pieces: list[ColumnTable] = []
    for g in range(reader.num_row_groups):
        mask: np.ndarray | None = None
        if combined is not None:
            if not combined.might_match(reader.group_stats(g)):
                METRICS.inc("query.groups_pruned")
                continue
            mask = _group_mask(reader, g, combined, token)
            if not mask.any():
                METRICS.inc("query.groups_empty")
                continue
            if mask.all():
                mask = None  # keep whole-group columns as views
        data = {}
        for n in out_cols:
            arr = _column(reader, g, n, token)
            data[n] = arr if mask is None else arr[mask]
        METRICS.inc("query.groups_decoded")
        pieces.append(ColumnTable(data))
    if not pieces:
        return None
    return ColumnTable.concat(pieces) if len(pieces) > 1 else pieces[0]


def _group_mask(
    reader: RcfReader, group: int, pred: Predicate, token: str
) -> np.ndarray:
    """Evaluate ``pred`` over one row group, decoding as little as
    possible: boolean algebra recurses, leaves go through the dictionary
    pushdown when the chunk is dict-encoded."""
    if isinstance(pred, And):
        return _group_mask(reader, group, pred.left, token) & _group_mask(
            reader, group, pred.right, token
        )
    if isinstance(pred, Or):
        return _group_mask(reader, group, pred.left, token) | _group_mask(
            reader, group, pred.right, token
        )
    if isinstance(pred, Not):
        return ~_group_mask(reader, group, pred.inner, token)
    if isinstance(pred, (Compare, IsIn)):
        return _leaf_mask(reader, group, pred, token)
    # Unknown node type: decode its columns and fall back to exact mask.
    data = {n: _column(reader, group, n, token) for n in pred.columns()}
    return pred.mask(ColumnTable(data))


def _leaf_mask(
    reader: RcfReader, group: int, pred, token: str
) -> np.ndarray:
    """One-column leaf evaluation, dictionary codes first.

    For a dict-encoded chunk the leaf is evaluated on the vocabulary
    (via the same ``mask_array`` that defines exact semantics) and the
    verdicts are gathered through the codes — O(|vocab| + rows) with no
    string materialization.  Null string rows carry code -1; their
    verdict comes from ``mask_array([None])``, which is exactly how a
    decoded null (None) would have been judged.
    """
    name = pred.column
    parts = reader.group_dictionary_parts(group, name)
    if parts is not None:
        values, codes, is_string = parts
        METRICS.inc("query.dict_pushdowns")
        if is_string:
            none_match = bool(
                pred.mask_array(np.array([None], dtype=object))[0]
            )
            if values.size == 0:
                return np.full(codes.size, none_match, dtype=bool)
            lut = np.asarray(pred.mask_array(values), dtype=bool)
            return np.where(
                codes >= 0, lut[np.maximum(codes, 0)], none_match
            )
        lut = np.asarray(pred.mask_array(values), dtype=bool)
        return lut[codes]
    arr = _column(reader, group, name, token)
    return np.asarray(pred.mask_array(arr), dtype=bool)


def _column(reader: RcfReader, group: int, name: str, token: str) -> np.ndarray:
    """One chunk's values: a view into the part's bytes when the chunk
    is stored raw (nothing to decode, so nothing to cache), else the
    cached decode."""
    view = reader.raw_view(group, name)
    if view is not None:
        return view
    return cached_column(
        token, group, name, lambda: reader.decode_group_column(group, name)
    )
