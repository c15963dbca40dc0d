"""``scan_segment`` against brute-force mask-then-filter.

The LAKE scan evaluates time and predicate only on the predicate's
columns over the planner's row range, then gathers each projected
column once through one index array.  Random segments (NaN timestamps,
NaN floats, object columns with nulls), random predicate trees, row
ranges (including a ``row_hi`` past the end) and projections must give
exactly the rows, columns, dtypes and values a boolean mask over the
sliced segment gives; no result column may alias the segment, and
``lake.rows_scanned`` counts the rows of the range.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable
from repro.columnar.predicate import Compare, IsIn, Not, Or
from repro.obs import METRICS
from repro.query import scan_segment

PROJECTS = ["PRJA", "PRJB", "PRJC"]
COLUMNS = ["timestamp", "node", "power", "project"]


def random_segment(rng, n):
    ts = np.sort(rng.uniform(0.0, 100.0, n))
    ts[rng.random(n) < 0.1] = np.nan  # NaN timestamps fail the time mask
    power = rng.normal(200.0, 40.0, n)
    power[rng.random(n) < 0.2] = np.nan
    project = np.array(
        [PROJECTS[i] for i in rng.integers(0, len(PROJECTS), n)],
        dtype=object,
    )
    project[rng.random(n) < 0.2] = None
    return ColumnTable(
        {
            "timestamp": ts,
            "node": rng.integers(0, 4, n),
            "power": power,
            "project": project,
        }
    )


def random_predicate(rng, depth=2):
    if depth > 0 and rng.random() < 0.5:
        kind = rng.integers(0, 3)
        left = random_predicate(rng, depth - 1)
        if kind == 0:
            return left & random_predicate(rng, depth - 1)
        if kind == 1:
            return Or(left, random_predicate(rng, depth - 1))
        return Not(left)
    leaf = rng.integers(0, 4)
    if leaf == 0:
        op = ["==", "!=", "<", "<=", ">", ">="][rng.integers(0, 6)]
        return Compare("power", op, float(rng.uniform(150.0, 250.0)))
    if leaf == 1:
        return Compare("project", "==", PROJECTS[rng.integers(0, 3)])
    if leaf == 2:
        return IsIn("project", (PROJECTS[rng.integers(0, 3)], None))
    return Compare("node", "<", int(rng.integers(0, 4)))


def brute_force(table, t0, t1, predicate, columns, row_lo, row_hi):
    """Boolean mask over the sliced segment, then per-column mask."""
    rows = {n: table[n][row_lo:row_hi] for n in table.column_names}
    sliced = ColumnTable(rows)
    ts = rows["timestamp"]
    mask = (ts >= (-np.inf if t0 is None else t0)) & (
        ts < (np.inf if t1 is None else t1)
    )
    if predicate is not None:
        mask &= predicate.mask(sliced)
    if not mask.any():
        return None
    names = table.column_names if columns is None else columns
    return {n: rows[n][mask] for n in names}


def assert_same(out, expected):
    assert out.column_names == list(expected)
    for name, want in expected.items():
        got = out[name]
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert np.array_equal(got, want, equal_nan=True), name


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_scan_segment_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    table = random_segment(rng, n)
    predicate = None if rng.random() < 0.25 else random_predicate(rng)
    t0 = None if rng.random() < 0.3 else float(rng.uniform(-10.0, 60.0))
    t1 = None if rng.random() < 0.3 else float(rng.uniform(40.0, 110.0))
    row_lo = int(rng.integers(0, n + 3))
    row_hi = None if rng.random() < 0.3 else int(rng.integers(0, n + 10))
    if rng.random() < 0.3:
        columns = None
    else:
        k = int(rng.integers(1, len(COLUMNS) + 1))
        columns = [COLUMNS[i] for i in rng.permutation(len(COLUMNS))[:k]]

    before = METRICS.counter("lake.rows_scanned")
    out = scan_segment(
        table, "timestamp", t0, t1, predicate, columns, row_lo, row_hi
    )
    scanned = METRICS.counter("lake.rows_scanned") - before
    assert scanned == len(range(n)[row_lo:row_hi])

    expected = brute_force(
        table, t0, t1, predicate, columns, row_lo, row_hi
    )
    if expected is None:
        assert out is None
        return
    assert_same(out, expected)
    for name in out.column_names:
        assert not np.shares_memory(out[name], table[name]), name


def test_full_range_default_arguments():
    rng = np.random.default_rng(3)
    table = random_segment(rng, 40)
    out = scan_segment(table, "timestamp", None, None, None, None)
    keep = ~np.isnan(table["timestamp"])
    expected = {n: table[n][keep] for n in table.column_names}
    assert_same(out, expected)


def test_unknown_projection_raises_only_when_rows_survive():
    table = ColumnTable({"timestamp": np.arange(4.0), "v": np.ones(4)})
    with pytest.raises(KeyError):
        scan_segment(table, "timestamp", 0.0, 2.0, None, ["nope"])
    assert scan_segment(table, "timestamp", 10.0, 20.0, None, ["nope"]) is None
