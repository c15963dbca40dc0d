"""Unit tests for the LAKE time-series store."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Col, ColumnTable
from repro.columnar.predicate import IsIn
from repro.obs import METRICS
from repro.perf import baseline_mode
from repro.storage import TimeSeriesLake
from repro.storage import lake as lake_module


def segment(t_start, n=10, node=0):
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": np.full(n, node),
            "value": np.arange(n, dtype=float),
        }
    )


@pytest.fixture
def lake():
    lk = TimeSeriesLake()
    for t in (0.0, 10.0, 20.0, 30.0):
        lk.ingest("power", segment(t))
    return lk


class TestIngest:
    def test_segments_accumulate(self, lake):
        assert lake.piece_count("power") == 4
        assert lake.row_count("power") == 40

    def test_empty_table_ignored(self, lake):
        lake.ingest("power", ColumnTable({}))
        assert lake.piece_count("power") == 4

    def test_missing_time_column_rejected(self, lake):
        with pytest.raises(ValueError):
            lake.ingest("power", ColumnTable({"x": [1.0]}))

    def test_out_of_order_segment_rejected(self, lake):
        with pytest.raises(ValueError):
            lake.ingest("power", segment(5.0))

    def test_out_of_order_is_judged_against_the_last_piece(self, lake):
        # The four pieces are one coalesced segment starting at 0; a
        # piece at 25 is after that start but before the last piece's.
        assert lake.segment_count("power") == 1
        with pytest.raises(ValueError, match="time order"):
            lake.ingest("power", segment(25.0))
        lake.ingest("power", segment(30.0))  # equal start stays legal

    def test_time_bounds(self, lake):
        assert lake.time_bounds("power") == (0.0, 39.0)
        assert lake.time_bounds("nope") is None


class TestQuery:
    def test_time_range_query(self, lake):
        out = lake.query("power", 5.0, 15.0)
        assert out.num_rows == 10
        assert out["timestamp"].min() == 5.0
        assert out["timestamp"].max() == 14.0

    def test_half_open_interval(self, lake):
        out = lake.query("power", 0.0, 10.0)
        assert out.num_rows == 10
        assert 10.0 not in out["timestamp"]

    def test_unbounded_query_returns_all(self, lake):
        assert lake.query("power").num_rows == 40

    def test_predicate_and_projection(self, lake):
        out = lake.query(
            "power", predicate=Col("value") >= 8.0, columns=["value"]
        )
        assert out.column_names == ["value"]
        assert out.num_rows == 8  # two rows per segment

    def test_unknown_table_empty(self, lake):
        assert lake.query("nope").num_rows == 0

    def test_empty_result_keeps_schema(self, lake):
        out = lake.query("power", 1e9, 2e9)
        assert out.num_rows == 0

    def test_emptied_or_unknown_table_keeps_the_projection(self, lake):
        # Every segment pruned, every piece dropped, no such table: one
        # zero-row shape, the requested columns in the requested order.
        lake.ingest("gone", segment(0.0))
        lake.drop_before("gone", 100.0)
        for name, t0 in (("power", 1e9), ("gone", None), ("nope", None)):
            out = lake.query(name, t0, columns=["value", "node"])
            assert out.column_names == ["value", "node"], name
            assert out.num_rows == 0
            with baseline_mode():
                assert lake.query(name, t0, columns=["value", "node"]) == out
        assert lake.query("gone").column_names == []

    def test_unknown_projection_column_raises(self, lake):
        with pytest.raises(KeyError, match="no column 'nope'"):
            lake.query("power", columns=["value", "nope"])

    def test_segment_pruning_counted(self):
        # A larger piece followed by a smaller one never coalesces, so
        # the table keeps two segments and the first can be pruned.
        lk = TimeSeriesLake()
        lk.ingest("power", segment(0.0, n=10))
        lk.ingest("power", segment(30.0, n=5))
        assert lk.segment_count("power") == 2
        before = lk.segments_pruned
        lk.query("power", 32.0, 33.0)
        assert lk.segments_pruned == before + 1


class TestRetention:
    def test_drop_before_whole_segments_only(self, lake):
        dropped = lake.drop_before("power", 15.0)
        assert dropped == 1  # only piece [0,9] is entirely older
        assert lake.piece_count("power") == 3
        assert lake.row_count("power") == 30
        assert lake.time_bounds("power") == (10.0, 39.0)

    def test_drop_before_keeps_recent(self, lake):
        lake.drop_before("power", 100.0)
        assert lake.segment_count("power") == 0

    def test_drop_table(self, lake):
        lake.drop_table("power")
        assert lake.tables() == []
        lake.drop_table("nope")  # no-op

    def test_nbytes_shrinks_after_drop(self, lake):
        before = lake.nbytes("power")
        lake.drop_before("power", 25.0)
        assert lake.nbytes("power") < before

    def test_drops_an_old_piece_behind_a_longer_lived_one(self):
        # Piece 0 reaches t=100, piece 1 only t=12: a horizon of 50
        # drops the middle piece alone, exactly as per-piece segments
        # did, and the survivors keep answering.
        lk = TimeSeriesLake()
        lk.ingest("t", ColumnTable({"timestamp": [0.0, 100.0], "v": [0, 1]}))
        lk.ingest("t", ColumnTable({"timestamp": [10.0, 12.0], "v": [2, 3]}))
        lk.ingest("t", ColumnTable({"timestamp": [20.0, 60.0], "v": [4, 5]}))
        lk.ingest("t", ColumnTable({"timestamp": [30.0, 70.0], "v": [6, 7]}))
        assert lk.segment_count("t") == 1
        assert lk.drop_before("t", 50.0) == 1
        assert lk.piece_count("t") == 3
        assert lk.query("t")["v"].tolist() == [0, 1, 4, 5, 6, 7]
        assert lk.query("t", 10.0, 30.0)["v"].tolist() == [4]


class TestNanTimestamps:
    """A NaN timestamp is an unreachable row, not a poisoned piece."""

    def piece(self):
        return ColumnTable(
            {"timestamp": [100.0, float("nan"), 101.0], "v": [1.0, 2.0, 3.0]}
        )

    def test_piece_survives_retention(self):
        lk = TimeSeriesLake()
        lk.ingest("t", self.piece())
        assert lk.query("t").num_rows == 2
        assert lk.drop_before("t", -1e9) == 0
        assert lk.query("t").num_rows == 2
        assert lk.time_bounds("t") == (100.0, 101.0)

    def test_piece_is_time_pruned(self):
        lk = TimeSeriesLake()
        lk.ingest("t", self.piece())
        before = lk.segments_pruned
        assert lk.query("t", 500.0, 600.0).num_rows == 0
        assert lk.segments_pruned == before + 1

    def test_later_pieces_stay_ordered_and_found(self):
        lk = TimeSeriesLake()
        lk.ingest("t", ColumnTable({"timestamp": [0.0, 1.0, 2.0, 3.0], "v": [0.0] * 4}))
        lk.ingest("t", self.piece())
        lk.ingest("t", ColumnTable({"timestamp": [200.0], "v": [9.0]}))
        # Piece starts are [0, 100, 200]: the bisection cut stays sound.
        assert lk.query("t", 150.0, 250.0)["v"].tolist() == [9.0]
        assert lk.query("t", 100.0, 150.0)["v"].tolist() == [1.0, 3.0]
        with pytest.raises(ValueError, match="time order"):
            lk.ingest("t", ColumnTable({"timestamp": [150.0], "v": [0.0]}))

    def test_piece_without_a_finite_timestamp_is_ignored(self):
        lk = TimeSeriesLake()
        lk.ingest("t", ColumnTable({"timestamp": [float("nan")] * 2, "v": [1.0, 2.0]}))
        assert lk.piece_count("t") == 0
        assert lk.time_bounds("t") is None


class TestSchema:
    def test_column_name_drift_rejected_at_ingest(self):
        lk = TimeSeriesLake()
        lk.ingest("t", ColumnTable({"timestamp": [0.0], "v": [1.0]}))
        with pytest.raises(ValueError, match=r"'t'.*'v'.*'w'"):
            lk.ingest("t", ColumnTable({"timestamp": [1.0], "w": [1.0]}))
        assert lk.query("t").column_names == ["timestamp", "v"]
        assert lk.row_count("t") == 1

    def test_dtype_change_is_legal_and_never_merged_across(self):
        lk = TimeSeriesLake()
        for t in (0.0, 1.0):
            lk.ingest("t", ColumnTable({"timestamp": [t], "v": np.array([1])}))
        for t in (2.0, 3.0):
            lk.ingest("t", ColumnTable({"timestamp": [t], "v": np.array([1.5])}))
        # Two int pieces coalesced, two float pieces coalesced, and the
        # dtype boundary between them kept.
        assert lk.piece_count("t") == 4
        assert lk.segment_count("t") == 2
        assert lk.query("t", 0.0, 2.0)["v"].dtype == np.int64
        assert lk.query("t", 2.0, 4.0)["v"].dtype == np.float64
        assert lk.query("t")["v"].dtype == np.float64
        assert lk.query("t")["v"].tolist() == [1.0, 1.0, 1.5, 1.5]


def windows(n_pieces, lake=None, first=0):
    """``n_pieces`` equal pieces (64 rows, one per 15 s window, rows
    spread over the window), starting at window ``first``."""
    rows, step = 64, 15.0
    lake = lake or TimeSeriesLake()
    for w in range(first, first + n_pieces):
        lake.ingest(
            "t",
            ColumnTable(
                {
                    "timestamp": w * step + np.arange(rows) * (step / rows),
                    "node": np.arange(rows) % 8,
                    "v": np.full(rows, float(w)),
                }
            ),
        )
    return lake


class TestCoalescingWork:
    """The mechanism, pinned without a clock (all counts are exact)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 45, 64, 100, 240])
    def test_equal_pieces_leave_logarithmic_segments(self, n):
        METRICS.reset()
        lk = windows(n)
        levels = math.ceil(math.log2(n)) if n > 1 else 0
        assert lk.piece_count("t") == n
        assert lk.segment_count("t") == bin(n).count("1") <= levels + 1
        assert METRICS.counter("lake.rows_copied") <= n * 64 * levels

    def test_pinned_counts_at_the_bench_shape(self):
        # 45 windows of 64 rows: 45 = 32 + 8 + 4 + 1.
        METRICS.reset()
        lk = windows(45)
        assert lk.segment_count("t") == 4
        assert METRICS.counter("lake.pieces_merged") == 118
        assert METRICS.counter("lake.rows_copied") == 118 * 64
        assert METRICS.counter("lake.rows_copied") <= 6 * lk.row_count("t")

    @pytest.mark.parametrize("k", [1, 4])
    def test_rows_scanned_follow_the_window_not_the_table(self, k):
        scanned = set()
        for n in (16, 64, 240):
            lk = windows(n)
            METRICS.reset()
            # Windows 8 .. 8+k-1.  These pieces are disjoint, so the
            # narrowing is exact; pieces whose ranges overlap add the
            # ones whose running-max hull reaches into the window.
            out = lk.query("t", 8 * 15.0, (8 + k) * 15.0)
            assert out.num_rows == k * 64
            scanned.add(METRICS.counter("lake.rows_scanned"))
        assert scanned == {k * 64}

    def test_row_ceiling_stops_absorption(self):
        with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", 4 * 64):
            lk = windows(16)
        assert lk.segment_count("t") == 4
        assert lk.row_count("t") == 16 * 64
        # Past the patch the four full segments could pair up, but only
        # the tail is ever reconsidered: one more piece joins nothing.
        windows(1, lake=lk, first=16)
        assert lk.segment_count("t") == 5

    def test_retention_counts_match_uncoalesced_pieces(self):
        lk = windows(45)
        t_maxes = [w * 15.0 + 63 * (15.0 / 64) for w in range(45)]
        for horizon in (-1.0, 14.9, 15.0, 100.0, 100.0, 400.0, 1e9):
            expected = sum(1 for m in t_maxes if m < horizon)
            t_maxes = [m for m in t_maxes if m >= horizon]
            assert lk.drop_before("t", horizon) == expected
            assert lk.piece_count("t") == len(t_maxes)
            assert lk.row_count("t") == 64 * len(t_maxes)


# -- equivalence with a never-coalesced list of pieces ------------------------

TAGS = ["a", "b", None]


@st.composite
def pieces(draw):
    """One ingest: a start advance (rarely backwards) and unsorted row
    offsets, so piece ranges overlap; now and then ``v`` changes dtype."""
    n = draw(st.integers(1, 6))
    offsets = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n))
    nan_rows = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return (
        "ingest",
        draw(st.integers(-3, 25)),
        offsets,
        nan_rows if draw(st.integers(0, 5)) == 0 else [False] * n,
        draw(st.integers(0, 4)) == 0,
        draw(st.lists(st.sampled_from(TAGS), min_size=n, max_size=n)),
    )


BOUND = st.one_of(st.none(), st.integers(-5, 200).map(float))
PREDICATE = st.one_of(
    st.none(),
    st.integers(0, 60).map(lambda x: Col("v") >= x),
    st.just(IsIn("tag", ("a",))),
    st.integers(0, 60).map(lambda x: (Col("v") < x) & ~IsIn("tag", ("b",))),
)
COLUMNS = st.one_of(
    st.none(),
    st.lists(
        st.sampled_from(["timestamp", "v", "tag"]), min_size=1, unique=True
    ),
)
QUERY = st.tuples(st.just("query"), BOUND, BOUND, PREDICATE, COLUMNS)
# Mostly ingests and queries, so that queries meet several coalesced
# segments; the occasional drop usually takes a prefix, not everything.
OPS = st.lists(
    st.one_of(
        *[pieces()] * 4,
        *[QUERY] * 3,
        *[st.tuples(st.just("drop"), st.integers(-5, 120).map(float))] * 2,
    ),
    min_size=4,
    max_size=40,
)


class PieceListOracle:
    """Today's contract in plain NumPy: one retained table per ingest,
    whole-piece retention, per-piece exact masks, concatenated in order."""

    def __init__(self):
        self.pieces = []  # (t_min, t_max, table)

    def ingest(self, table):
        ts = table["timestamp"]
        if not np.isfinite(ts).any():
            return True
        t_min, t_max = float(np.nanmin(ts)), float(np.nanmax(ts))
        if self.pieces and t_min < self.pieces[-1][0]:
            return False
        self.pieces.append((t_min, t_max, table))
        return True

    def drop_before(self, horizon):
        keep = [p for p in self.pieces if p[1] >= horizon]
        dropped = len(self.pieces) - len(keep)
        self.pieces = keep
        return dropped

    def query(self, t0, t1, predicate, columns):
        if not self.pieces:
            # No piece to read the schema from: the requested columns.
            return {n: np.empty(0) for n in columns or ()}
        lo = -np.inf if t0 is None else t0
        hi = np.inf if t1 is None else t1
        names = columns or self.pieces[0][2].column_names
        parts = {n: [] for n in names}
        for _, _, table in self.pieces:
            ts = table["timestamp"]
            mask = (ts >= lo) & (ts < hi)
            if predicate is not None:
                mask &= predicate.mask(table)
            if mask.any():
                for n in names:
                    parts[n].append(table[n][mask])
        if not parts[names[0]]:
            return {n: np.empty(0) for n in names}
        return {n: np.concatenate(arrays) for n, arrays in parts.items()}

    def time_bounds(self):
        if not self.pieces:
            return None
        return self.pieces[0][0], max(p[1] for p in self.pieces)


def assert_identical(result, expected):
    assert result.column_names == list(expected)
    for name, want in expected.items():
        got = result[name]
        assert got.dtype == want.dtype, name
        if want.dtype == object:
            assert got.tolist() == want.tolist(), name
        else:
            assert got.tobytes() == want.tobytes(), name


@given(ops=OPS, ceiling=st.sampled_from([4, 16, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_random_histories_match_the_piece_list_oracle(ops, ceiling):
    lk, oracle = TimeSeriesLake(), PieceListOracle()
    start, serial, dtype = 0, 0, np.int64
    with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", ceiling):
        for op in ops:
            if op[0] == "ingest":
                _, advance, offsets, nan_rows, flip, tags = op
                start += advance
                if flip:
                    dtype = np.float64 if dtype is np.int64 else np.int64
                ts = np.array([start + o for o in offsets], dtype=float)
                ts[np.array(nan_rows)] = np.nan
                v = np.arange(serial, serial + len(offsets)).astype(dtype)
                serial += len(offsets)
                table = ColumnTable({"timestamp": ts, "v": v, "tag": tags})
                if oracle.ingest(table):
                    lk.ingest("t", table)
                else:
                    with pytest.raises(ValueError, match="time order"):
                        lk.ingest("t", table)
                    start -= advance
            elif op[0] == "drop":
                assert lk.drop_before("t", op[1]) == oracle.drop_before(op[1])
            else:
                expected = oracle.query(*op[1:])
                assert_identical(lk.query("t", *op[1:]), expected)
                with baseline_mode():
                    assert_identical(lk.query("t", *op[1:]), expected)
            tables = [p[2] for p in oracle.pieces]
            assert lk.piece_count("t") == len(tables)
            assert lk.segment_count("t") <= len(tables)
            assert lk.row_count("t") == sum(t.num_rows for t in tables)
            assert lk.nbytes("t") == sum(t.nbytes for t in tables)
            assert lk.time_bounds("t") == oracle.time_bounds()
