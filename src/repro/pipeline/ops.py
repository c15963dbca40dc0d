"""Vectorized relational operators over ColumnTable.

These are the SQL clauses of the paper's pipeline anatomy (Fig. 4b).
Every operator is loop-free over rows: grouping keys are factorized to
dense integer codes, composite keys are mixed-radix combined, and
reductions ride :func:`repro.util.timeseries.bucket_reduce`.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.pipeline.factorize import factorize
from repro.util.timeseries import (
    bucket_indices,
    bucket_plan,
    bucket_reduce,
    bucket_reduce_planned,
)

__all__ = ["select", "where", "group_by_agg", "pivot", "hash_join", "resample"]


def select(table: ColumnTable, columns: Sequence[str]) -> ColumnTable:
    """SQL SELECT: project columns (order as given)."""
    return table.select(columns)


def where(table: ColumnTable, predicate: Predicate) -> ColumnTable:
    """SQL WHERE: keep rows matching the predicate."""
    return table.filter(predicate.mask(table))


def _composite_codes(
    table: ColumnTable, keys: Sequence[str]
) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """Mixed-radix combination of per-key codes.

    Returns (composite codes, per-key unique arrays, per-key radices).
    """
    if not keys:
        raise ValueError("at least one grouping key required")
    codes_list, uniq_list, radices = [], [], []
    for key in keys:
        codes, uniq = factorize(table[key])
        codes_list.append(codes)
        uniq_list.append(uniq)
        radices.append(max(len(uniq), 1))
    total_card = 1.0
    for r in radices:
        total_card *= r
    if total_card >= 2**62:
        raise ValueError(
            f"composite key cardinality {total_card:.3g} overflows int64"
        )
    composite = np.zeros(table.num_rows, dtype=np.int64)
    for codes, radix in zip(codes_list, radices):
        composite = composite * radix + codes
    return composite, uniq_list, radices


def _decompose(
    composite: np.ndarray, uniq_list: list[np.ndarray], radices: list[int]
) -> list[np.ndarray]:
    """Invert the mixed-radix combination back to per-key values."""
    out: list[np.ndarray] = [None] * len(radices)  # type: ignore[list-item]
    rem = composite.copy()
    for i in range(len(radices) - 1, -1, -1):
        idx = rem % radices[i]
        rem //= radices[i]
        out[i] = uniq_list[i][idx]
    return out


def group_by_agg(
    table: ColumnTable,
    keys: Sequence[str],
    aggs: Mapping[str, tuple[str, str]],
) -> ColumnTable:
    """SQL GROUP BY: ``aggs`` maps output name -> (column, reducer).

    Reducers are those of :func:`repro.util.timeseries.bucket_reduce`
    (mean/sum/min/max/count/std/first/last).  Output rows are ordered by
    the composite key (keys ascending, in order).

    Examples
    --------
    >>> out = group_by_agg(t, ["node"], {"p_mean": ("power", "mean"),
    ...                                  "n": ("power", "count")})
    """
    if table.num_rows == 0:
        cols: dict[str, np.ndarray] = {k: table[k][:0] for k in keys}
        for out_name, (col, _) in aggs.items():
            cols[out_name] = np.empty(0)
        return ColumnTable(cols)
    composite, uniq_list, radices = _composite_codes(table, keys)
    # One argsort of the composite key, shared by every aggregation.
    plan = bucket_plan(composite)
    uniq_composite = plan[0]
    out_cols: dict[str, np.ndarray] = {}
    for out_name, (col, reducer) in aggs.items():
        _, reduced = bucket_reduce_planned(plan, table[col], reducer)
        out_cols[out_name] = reduced
    key_values = _decompose(uniq_composite, uniq_list, radices)
    result: dict[str, np.ndarray] = {
        k: v for k, v in zip(keys, key_values)
    }
    result.update(out_cols)
    return ColumnTable(result)


def pivot(
    table: ColumnTable,
    index: Sequence[str],
    column_key: str,
    value: str,
    agg: str = "mean",
    name_fn: Callable[[object], str] = str,
    fill: float = np.nan,
) -> ColumnTable:
    """SQL PIVOT: long -> wide.

    One output row per unique ``index`` tuple; one output column per
    unique value of ``column_key``, named ``name_fn(key_value)``.
    Duplicate (index, key) cells are reduced with ``agg``; missing cells
    get ``fill``.

    This is the Bronze -> Silver shape change: long per-observation rows
    become per-(time bucket, component) rows with one column per sensor.
    """
    grouped = group_by_agg(
        table, list(index) + [column_key], {"__v": (value, agg)}
    )
    idx_codes, idx_uniq, idx_radices = _composite_codes(grouped, index)
    key_codes, key_uniq = factorize(grouped[column_key])

    # Dense row index for each unique index tuple (sorted order).
    uniq_rows, row_of = np.unique(idx_codes, return_inverse=True)
    n_rows, n_cols = uniq_rows.size, key_uniq.size
    wide = np.full((n_rows, n_cols), fill, dtype=np.float64)
    wide[row_of, key_codes] = grouped["__v"]

    key_values = _decompose(uniq_rows, idx_uniq, idx_radices)
    out: dict[str, np.ndarray] = {k: v for k, v in zip(index, key_values)}
    for j in range(n_cols):
        out[name_fn(key_uniq[j])] = wide[:, j]
    return ColumnTable(out)


def hash_join(
    left: ColumnTable,
    right: ColumnTable,
    on: Sequence[str],
    how: str = "inner",
    suffix: str = "_r",
) -> ColumnTable:
    """Many-to-one equi-join: every right key must be unique.

    This matches the pipeline's contextualization joins (observations
    against job-allocation rows); a duplicate right key is a data bug we
    surface rather than silently exploding rows.  ``how`` is ``"inner"``
    or ``"left"`` (left keeps unmatched rows with NaN/None fill).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    # Factorize keys over the union so codes are comparable.
    union = ColumnTable(
        {
            k: np.concatenate(
                [
                    np.asarray(left[k], dtype=object)
                    if left[k].dtype == object
                    else left[k],
                    np.asarray(right[k], dtype=object)
                    if right[k].dtype == object
                    else right[k],
                ]
            )
            for k in on
        }
    )
    composite, _, _ = _composite_codes(union, on)
    lc = composite[: left.num_rows]
    rc = composite[left.num_rows :]

    order = np.argsort(rc, kind="stable")
    rc_sorted = rc[order]
    if rc_sorted.size and (rc_sorted[1:] == rc_sorted[:-1]).any():
        raise ValueError("right side has duplicate join keys (expect unique)")
    if rc_sorted.size == 0:
        matched = np.zeros(lc.size, dtype=bool)
        right_rows = np.zeros(lc.size, dtype=np.int64)
    else:
        pos = np.searchsorted(rc_sorted, lc)
        pos_clamped = np.minimum(pos, rc_sorted.size - 1)
        matched = (pos < rc_sorted.size) & (rc_sorted[pos_clamped] == lc)
        right_rows = order[pos_clamped]

    if how == "inner":
        keep = matched
        left_out = left.filter(keep)
        gather = right_rows[keep]
        out = {n: c for n, c in left_out.columns().items()}
        for name in right.column_names:
            if name in on:
                continue
            col = right[name][gather]
            out[self_name(name, out, suffix)] = col
        return ColumnTable(out)

    # Left join: fill unmatched with NaN / None.
    out = {n: c for n, c in left.columns().items()}
    for name in right.column_names:
        if name in on:
            continue
        src = right[name]
        if src.size == 0:
            if src.dtype == object:
                col = np.full(left.num_rows, None, dtype=object)
            else:
                col = np.full(left.num_rows, np.nan)
            out[self_name(name, out, suffix)] = col
            continue
        if src.dtype == object:
            col = np.empty(left.num_rows, dtype=object)
            picked = src[right_rows]
            col[:] = [
                p if m else None for p, m in zip(picked.tolist(), matched.tolist())
            ]
        else:
            col = np.where(
                matched, src[right_rows].astype(np.float64), np.nan
            )
        out[self_name(name, out, suffix)] = col
    return ColumnTable(out)


def self_name(name: str, existing: Mapping[str, object], suffix: str) -> str:
    """Disambiguate a joined column name against existing columns."""
    return name if name not in existing else f"{name}{suffix}"


def resample(
    table: ColumnTable,
    time_column: str,
    interval: float,
    keys: Sequence[str] = (),
    aggs: Mapping[str, tuple[str, str]] | None = None,
    bucket_column: str = "bucket",
) -> ColumnTable:
    """Time-bucketed GROUP BY: adds a bucket-start column, groups by
    (bucket, \\*keys), and aggregates.

    This is the "aggregated over designated time intervals (e.g., every
    15 seconds) to reconcile differences in sample rates" step (§V-A).
    """
    if aggs is None:
        raise ValueError("aggs required")
    idx = bucket_indices(table[time_column], interval)
    with_bucket = table.with_column(bucket_column, idx * interval)
    return group_by_agg(with_bucket, [bucket_column, *keys], aggs)
