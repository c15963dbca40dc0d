"""Property-style soundness: planner output == brute-force mask path.

Random tables (NaN floats, null strings, dict-friendly low-cardinality
columns) and random predicate trees, executed three ways — fast on a
cold cache, fast on a warm one, and the decode-everything reference —
must all agree
with the plain ``predicate.mask`` filter over the concatenated data.
This is the one assertion that covers row-group pruning,
dictionary-code pushdown, late materialization, raw chunks read in
place, and the cache at once.
"""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable, write_table
from repro.columnar.file_format import RcfReader
from repro.columnar.predicate import Compare, IsIn, Not, Or
from repro.query import (
    ScanOptions,
    SegmentUnit,
    clear_row_group_cache,
    execute_plan,
    execute_plan_reference,
    plan_parts,
    plan_segments,
)
from repro.query.scan import fold_time_predicate
from repro.storage.manifest import stats_from_meta, stats_to_meta, table_stats

PROJECTS = ["PRJA", "PRJB", "PRJC", "PRJD"]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_row_group_cache()
    yield
    clear_row_group_cache()


def random_table(rng, n):
    power = rng.normal(200.0, 40.0, n)
    power[rng.random(n) < 0.1] = np.nan  # NaN-bearing telemetry column
    project = np.array(
        [PROJECTS[i] for i in rng.integers(0, len(PROJECTS), n)],
        dtype=object,
    )
    project[rng.random(n) < 0.1] = None  # null strings
    return ColumnTable(
        {
            "timestamp": np.sort(rng.uniform(0.0, 1000.0, n)),
            "node": rng.integers(0, 8, n).astype(float),
            "power": power,
            "project": project,
        }
    )


def random_predicate(rng, depth=2):
    if depth > 0 and rng.random() < 0.5:
        kind = rng.integers(0, 3)
        if kind == 0:
            return random_predicate(rng, depth - 1) & random_predicate(
                rng, depth - 1
            )
        if kind == 1:
            return Or(
                random_predicate(rng, depth - 1),
                random_predicate(rng, depth - 1),
            )
        return Not(random_predicate(rng, depth - 1))
    leaf = rng.integers(0, 4)
    if leaf == 0:
        op = ["==", "!=", "<", "<=", ">", ">="][rng.integers(0, 6)]
        return Compare("power", op, float(rng.uniform(120.0, 280.0)))
    if leaf == 1:
        op = ["==", "!=", "<", ">="][rng.integers(0, 4)]
        return Compare("project", op, PROJECTS[rng.integers(0, 4)])
    if leaf == 2:
        return IsIn(
            "project",
            tuple(
                PROJECTS[i]
                for i in rng.choice(4, size=rng.integers(1, 3), replace=False)
            ),
        )
    return Compare("node", "==", float(rng.integers(0, 8)))


def brute_force(tables, t0, t1, predicate, columns):
    whole = ColumnTable.concat(tables)
    pred = fold_time_predicate(predicate, "timestamp", t0, t1)
    if pred is not None:
        whole = whole.filter(pred.mask(whole))
    if columns is not None:
        whole = whole.select(columns)
    return whole


def build_plan(tables, blobs, t0, t1, predicate, columns, with_stats=True):
    parts = []
    for i, (t, b) in enumerate(zip(tables, blobs)):
        stats = (
            stats_from_meta(stats_to_meta(table_stats(t)))
            if with_stats
            else None
        )
        parts.append((f"p{i}", len(b), stats))
    plan = plan_parts(
        "d", parts, t0, t1, predicate, columns, time_column="timestamp"
    )
    for unit, b in zip(plan.units, blobs):
        unit.blob = b  # all blobs attached so the reference can scan
    return plan


@pytest.mark.parametrize("seed", range(12))
def test_random_queries_match_brute_force(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    tables = [random_table(rng, int(rng.integers(50, 200))) for _ in range(3)]
    blobs = [write_table(t, row_group_size=32) for t in tables]
    predicate = random_predicate(rng)
    t0, t1 = (
        (None, None)
        if rng.random() < 0.3
        else tuple(sorted(rng.uniform(0.0, 1000.0, 2)))
    )
    columns = (
        None
        if rng.random() < 0.5
        else ["timestamp", "power", "project"]
    )
    views = []
    raw_view = RcfReader.raw_view

    def counted(reader, group, name):
        view = raw_view(reader, group, name)
        if view is not None:
            views.append(name)
        return view

    monkeypatch.setattr(RcfReader, "raw_view", counted)
    # The random query, then the same projection unfiltered — which
    # scans every group, so every run reaches the raw chunks.
    for t0, t1, predicate in ((t0, t1, predicate), (None, None, None)):
        expected = brute_force(tables, t0, t1, predicate, columns)
        plan = build_plan(tables, blobs, t0, t1, predicate, columns)

        clear_row_group_cache()
        cold = execute_plan(plan)
        reference = execute_plan_reference(plan)
        # A second run exercises warm-cache hits.
        warm = execute_plan(plan)

        for out in (cold, reference, warm):
            assert out.num_rows == expected.num_rows
            assert list(out.column_names) == list(expected.column_names)
            for c in expected.column_names:
                a, b = out[c], expected[c]
                if a.dtype == object or b.dtype == object:
                    assert [x for x in a.tolist()] == [x for x in b.tolist()]
                else:
                    assert np.array_equal(a, b, equal_nan=True)
        assert write_table(cold) == write_table(reference)
        assert write_table(warm) == write_table(reference)
    # Noisy float chunks of 32 rows are stored raw and read in place.
    assert views


@pytest.mark.parametrize("seed", range(6))
def test_shared_reader_equals_fresh_reader_per_scan(seed):
    # The tier store keeps one open reader per live part and hands it to
    # every scan.  A reader must therefore carry nothing from one scan
    # into the next: the same readers, scanned again and again under
    # different predicates, windows and projections, must answer byte
    # for byte what a reader opened for that scan alone answers — on a
    # cold row-group cache and a warm one.
    rng = np.random.default_rng([seed, 99])
    tables = [random_table(rng, int(rng.integers(50, 200))) for _ in range(3)]
    blobs = [write_table(t, row_group_size=32) for t in tables]
    shared = [RcfReader(b) for b in blobs]
    for _ in range(8):
        predicate = random_predicate(rng) if rng.random() < 0.8 else None
        t0, t1 = (
            (None, None)
            if rng.random() < 0.3
            else tuple(sorted(rng.uniform(0.0, 1000.0, 2)))
        )
        columns = (
            None
            if rng.random() < 0.5
            else [["timestamp", "power", "project"], ["node"]][rng.integers(0, 2)]
        )
        fresh_plan = build_plan(tables, blobs, t0, t1, predicate, columns)
        shared_plan = build_plan(tables, blobs, t0, t1, predicate, columns)
        for unit, reader in zip(shared_plan.units, shared):
            unit.reader = reader
        clear_row_group_cache()
        want = write_table(execute_plan(fresh_plan))
        assert write_table(execute_plan(shared_plan)) == want
        clear_row_group_cache()
        assert write_table(execute_plan(shared_plan)) == want
        assert write_table(execute_plan_reference(shared_plan)) == want
    # Sharing is real: each reader hashed and parsed its headers once.
    assert all(r.header_parse_count <= r.num_row_groups for r in shared)


def test_nan_chunk_not_equal_stays_conservative():
    # One chunk is constant-plus-NaN: `!=` and `NOT(==)` are satisfied
    # by the NaN row even though min == max == value, so the inexact
    # stats must block the constant-chunk prune.
    t = ColumnTable(
        {
            "timestamp": np.arange(4, dtype=float),
            "power": np.array([5.0, 5.0, np.nan, 5.0]),
        }
    )
    blob = write_table(t, row_group_size=4)
    for predicate in (Col("power") != 5.0, Not(Compare("power", "==", 5.0))):
        plan = build_plan([t], [blob], None, None, predicate, None)
        fast = execute_plan(plan)
        ref = execute_plan_reference(plan)
        assert fast.num_rows == ref.num_rows == 1
        assert np.isnan(fast["power"]).all()


def test_or_keeps_group_either_side_might_match():
    # Group stats exclude the left branch but not the right: Or must
    # keep the group (conservative), and the final rows must match.
    t = ColumnTable(
        {
            "timestamp": np.arange(10, dtype=float),
            "power": np.linspace(100.0, 109.0, 10),
        }
    )
    blob = write_table(t, row_group_size=10)
    predicate = Or(Col("power") > 1000.0, Col("power") <= 101.0)
    plan = build_plan([t], [blob], None, None, predicate, None)
    fast = execute_plan(plan)
    assert fast.num_rows == 2
    assert fast == execute_plan_reference(plan)


def test_null_string_rows_follow_mask_semantics():
    # Compare treats None as "" (so `< "B"` matches); IsIn matches None
    # only when None is listed.  Pushdown on dict codes must agree.
    t = ColumnTable(
        {
            "timestamp": np.arange(6, dtype=float),
            "project": np.array(
                ["PRJA", None, "PRJB", None, "PRJC", "PRJA"], dtype=object
            ),
        }
    )
    blob = write_table(t, row_group_size=3)
    cases = [
        (Col("project") < "PRJB", 4),        # "" sorts first: 2 None + 2 PRJA
        (Col("project") == "PRJA", 2),
        (IsIn("project", ("PRJB",)), 1),
        (IsIn("project", (None, "PRJB")), 3),
        (Not(Compare("project", "==", "PRJA")), 4),
    ]
    for predicate, expected_rows in cases:
        plan = build_plan([t], [blob], None, None, predicate, None)
        fast = execute_plan(plan)
        ref = execute_plan_reference(plan)
        assert fast.num_rows == expected_rows, predicate
        assert fast == ref


def test_unknown_projection_column_raises():
    t = random_table(np.random.default_rng(0), 20)
    blob = write_table(t)
    plan = build_plan([t], [blob], None, None, None, ["nope"])
    with pytest.raises(KeyError):
        execute_plan(plan)


def test_pruned_parts_counted_and_skipped():
    from repro.perf import PERF

    rng = np.random.default_rng(1)
    tables = [random_table(rng, 64) for _ in range(4)]
    blobs = [write_table(t) for t in tables]
    # Window beyond all data: every part prunes via manifest stats.
    plan = build_plan(tables, blobs, 5000.0, 6000.0, None, None)
    assert plan.pruned_units == 4
    before = PERF.counter("query.parts_scanned")
    out = execute_plan(plan)
    assert out.num_rows == 0
    assert PERF.counter("query.parts_scanned") == before
    # The reference scans everything and still agrees.
    assert out.num_rows == execute_plan_reference(plan).num_rows


def test_scan_options_are_serial_only(monkeypatch):
    with pytest.raises(ValueError, match="DESIGN.md"):
        ScanOptions(executor="threads")
    with pytest.raises(TypeError):
        ScanOptions(max_workers=4)
    for cpus in (1, 64):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        assert ScanOptions().resolve_executor() == "serial"
        assert ScanOptions(executor="auto").resolve_executor() == "serial"


# -- LAKE segment units with row ranges ---------------------------------------


def piece_run(rng, n_pieces=3, rows=20):
    """A coalesced segment: ``n_pieces`` disjoint 100 s pieces in one
    table, with the ``(t_min, t_max, table, piece index)`` tuple
    :func:`plan_segments` takes."""
    tables = []
    for i in range(n_pieces):
        t = random_table(rng, rows)
        tables.append(
            t.with_column("timestamp", 100.0 * i + t["timestamp"] / 10.0)
        )
    table = ColumnTable.concat(tables)
    starts = [float(t["timestamp"].min()) for t in tables]
    maxes = list(np.maximum.accumulate([t["timestamp"].max() for t in tables]))
    ends = [rows * (i + 1) for i in range(n_pieces)]
    return table, (starts[0], maxes[-1], table, (starts, maxes, ends))


def segment_plan(table, row_lo, row_hi, t0=None, t1=None, predicate=None):
    plan = plan_segments("t", [], t0, t1, predicate, ["timestamp", "power"])
    plan.units.append(
        SegmentUnit(0, 0.0, 0.0, table, row_lo=row_lo, row_hi=row_hi)
    )
    return plan


@pytest.mark.parametrize("seed", range(6))
def test_planned_row_ranges_match_the_whole_segment_oracle(seed):
    rng = np.random.default_rng(seed)
    table, seg = piece_run(rng)
    predicate = random_predicate(rng)
    for t0, t1 in [(None, None), (100.0, 200.0), (150.0, 170.0), (95.0, 100.0)]:
        plan = plan_segments(
            "t", [seg], t0, t1, predicate, ["timestamp", "project"]
        )
        expected = brute_force(
            [table], t0, t1, predicate, ["timestamp", "project"]
        )
        assert execute_plan(plan) == expected
        assert execute_plan_reference(plan) == expected


def test_window_over_one_piece_plans_that_piece_only():
    table, seg = piece_run(np.random.default_rng(0))
    (unit,) = plan_segments("t", [seg], 120.0, 180.0).units
    assert (unit.row_lo, unit.row_hi, unit.pruned) == (20, 40, False)
    # A window in the gap between pieces 0 and 1 leaves an empty range,
    # which is a pruned unit even though the segment's hull overlaps.
    (unit,) = plan_segments("t", [seg], 101.0, 102.0).units
    assert unit.row_lo == unit.row_hi and unit.pruned
    # No piece index: one piece, the whole table or nothing.
    (unit,) = plan_segments("t", [seg[:3]], 120.0, 180.0).units
    assert (unit.row_lo, unit.row_hi, unit.pruned) == (0, 60, False)


def test_full_and_empty_row_ranges():
    table, _ = piece_run(np.random.default_rng(1))
    for full in (segment_plan(table, 0, None), segment_plan(table, 0, 60)):
        assert execute_plan(full) == execute_plan_reference(full)
        assert execute_plan(full).num_rows == 60
    empty = segment_plan(table, 20, 20)
    assert execute_plan(empty).num_rows == 0
    assert execute_plan(empty).column_names == ["timestamp", "power"]


def test_oracle_catches_a_range_that_cuts_a_matching_piece():
    # The reference masks every row, so a row range that wrongly
    # excludes part of a piece inside the window shows as a mismatch.
    table, _ = piece_run(np.random.default_rng(2))
    cut = segment_plan(table, 30, 40, t0=100.0, t1=200.0)
    fast, reference = execute_plan(cut), execute_plan_reference(cut)
    assert (fast.num_rows, reference.num_rows) == (10, 20)
    assert fast == reference.slice(10, 20)


def test_rows_scanned_counts_the_narrowed_range():
    from repro.perf import PERF

    table, seg = piece_run(np.random.default_rng(3))
    before = PERF.counter("lake.rows_scanned")
    execute_plan(plan_segments("t", [seg], 120.0, 180.0))
    assert PERF.counter("lake.rows_scanned") == before + 20
