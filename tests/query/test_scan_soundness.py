"""Property-style soundness: planner output == brute-force mask path.

Random tables (NaN floats, null strings, dict-friendly low-cardinality
columns) and random predicate trees, executed three ways — fast on a
cold cache, fast on a warm one, and the decode-everything reference —
must all agree
with the plain ``predicate.mask`` filter over the concatenated data.
This is the one assertion that covers row-group pruning, late
materialization (each group masked by ``predicate.mask`` over its
predicate columns, dictionary chunks decoded like any other), raw
chunks read in place, and the cache at once.
"""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable, write_table
from repro.columnar.file_format import RcfReader, read_table
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
from repro.query import cache as qcache
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


def with_x(rng, n, kind):
    """A random table plus a column ``x`` of one dtype: int64, float64
    or strings with nulls — the same values written three ways."""
    x = rng.integers(0, 5, n)
    if kind == "int":
        col = x.astype(np.int64)
    elif kind == "float":
        col = x.astype(np.float64)
    else:
        col = np.array([None if v == 0 else str(v) for v in x], dtype=object)
    return random_table(rng, n).with_column("x", col)


def typed_part(rng, kind):
    """The blob of one part with ``x`` of dtype ``kind``.  Row groups of
    32 rows: a part of up to 32 rows is one group, a larger one several
    (all of one dtype: the writer refuses a dtype change)."""
    n = int(rng.choice([8, 32, 90]))
    return write_table(with_x(rng, n, kind), row_group_size=32)


def group_wise(blobs, t0, t1, predicate, columns):
    """The answer as promotion in two steps gives it: each row group
    decoded and filtered, a part's non-empty groups concatenated, then
    the parts."""
    pred = fold_time_predicate(predicate, "timestamp", t0, t1)
    parts = []
    for blob in blobs:
        reader = RcfReader(blob)
        groups = []
        for g in range(reader.num_row_groups):
            t = reader.read_group(g)
            if pred is not None:
                t = t.filter(pred.mask(t))
            groups.append(t if columns is None else t.select(columns))
        parts.append(ColumnTable.concat(groups))
    return ColumnTable.concat(parts)


def assert_identical(a, b):
    """Same columns, dtypes and bytes — object columns compared by the
    ``repr`` of each element, so ``1``, ``1.0`` and ``"1"`` all differ."""
    assert a.column_names == b.column_names
    for n in a.column_names:
        assert a[n].dtype == b[n].dtype, n
        if a[n].dtype == object:
            assert list(map(repr, a[n].tolist())) == list(
                map(repr, b[n].tolist())
            ), n
        else:
            assert a[n].tobytes() == b[n].tobytes(), n


@pytest.mark.parametrize("seed", range(12))
def test_parts_of_mixed_dtypes_promote_as_part_then_plan(seed):
    # The executor gathers every part's surviving slices per column and
    # concatenates once per plan.  Parts that disagree on a column's
    # dtype (int64 vs float64, int vs nullable strings), single- and
    # multi-group parts mixed, must still answer what promoting each
    # part's surviving groups and then the plan's parts answers, byte
    # for byte — and what the reference, which decodes whole parts,
    # answers.
    rng = np.random.default_rng([seed, 7])
    kinds = [["int", "float", "str"][i] for i in rng.integers(0, 3, 4)]
    blobs = [typed_part(rng, kind) for kind in kinds]
    tables = [read_table(b) for b in blobs]
    for _ in range(4):
        predicate = random_predicate(rng) if rng.random() < 0.7 else None
        t0, t1 = (
            (None, None)
            if rng.random() < 0.3
            else tuple(sorted(rng.uniform(0.0, 1000.0, 2)))
        )
        columns = None if rng.random() < 0.5 else ["timestamp", "x", "project"]
        plan = build_plan(tables, blobs, t0, t1, predicate, columns)
        want = group_wise(blobs, t0, t1, predicate, columns)
        clear_row_group_cache()
        cold = execute_plan(plan)
        warm = execute_plan(plan)
        reference = execute_plan_reference(plan)
        for out in (cold, warm):
            assert out.num_rows == want.num_rows
            if want.num_rows:
                assert_identical(out, want)
            assert_identical(out, reference)
        # The result owns its arrays: no column is a view of a part's
        # bytes or of a cached row group, even for one surviving group.
        cached = list(qcache._cache.values())
        for n in warm.column_names:
            for held in [np.frombuffer(b, dtype=np.uint8) for b in blobs] + cached:
                assert not np.shares_memory(warm[n], held), n


def test_one_full_group_result_is_still_a_copy():
    t = random_table(np.random.default_rng(5), 20)
    blob = write_table(t, row_group_size=32)
    plan = build_plan([t], [blob], None, None, None, ["timestamp", "power"])
    reader = RcfReader(blob)
    plan.units[0].reader = reader
    out = execute_plan(plan)
    assert out == t.select(["timestamp", "power"])
    for n in out.column_names:
        assert out[n].flags.owndata and out[n].flags.writeable
        assert not np.shares_memory(out[n], np.frombuffer(blob, dtype=np.uint8))
        assert not any(
            np.shares_memory(out[n], arr) for arr in qcache._cache.values()
        )


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
    # only when None is listed.  The scan of dictionary chunks must agree.
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
    from repro.obs import METRICS

    rng = np.random.default_rng(1)
    tables = [random_table(rng, 64) for _ in range(4)]
    blobs = [write_table(t) for t in tables]
    # Window beyond all data: every part prunes via manifest stats.
    plan = build_plan(tables, blobs, 5000.0, 6000.0, None, None)
    assert plan.pruned_units == 4
    before = METRICS.counter("query.parts_scanned")
    out = execute_plan(plan)
    assert out.num_rows == 0
    assert METRICS.counter("query.parts_scanned") == before
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
    from repro.obs import METRICS

    table, seg = piece_run(np.random.default_rng(3))
    before = METRICS.counter("lake.rows_scanned")
    execute_plan(plan_segments("t", [seg], 120.0, 180.0))
    assert METRICS.counter("lake.rows_scanned") == before + 20
