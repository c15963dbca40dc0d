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
        # A dtype change seals the open segment, so the table keeps two
        # segments and the first can be pruned.
        lk = TimeSeriesLake()
        lk.ingest("power", segment(0.0, n=10))
        later = segment(30.0, n=5)
        lk.ingest("power", later.with_column("node", later["node"] * 0.5))
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
        # Under the ceiling every piece lands in the one open segment.
        # Its capacity doubles from one piece's rows, and each regrowth
        # copies the rows it holds: 1 + 2 + ... pieces up to the power
        # of two below n.  Right after a regrowth that is almost 2 rows
        # per row on top of the append, so 3x bounds the copying; over
        # a segment that fills its capacity it is under 2x.
        METRICS.reset()
        lk = windows(n)
        levels = math.ceil(math.log2(n)) if n > 1 else 0
        assert lk.piece_count("t") == n
        assert lk.segment_count("t") == 1 <= levels + 1
        copied = METRICS.counter("lake.rows_copied")
        assert copied == 64 * (n + 2**levels - 1)
        assert copied < 3 * n * 64
        if n == 2**levels:
            assert copied < 2 * n * 64

    def test_pinned_counts_at_the_bench_shape(self):
        # 45 windows of 64 rows: one segment; 2,880 rows appended and
        # 1 + 2 + 4 + 8 + 16 + 32 = 63 pieces' rows moved by regrowths.
        METRICS.reset()
        lk = windows(45)
        assert lk.segment_count("t") == 1
        assert METRICS.counter("lake.rows_copied") == 45 * 64 + 63 * 64 == 6912
        assert METRICS.counter("lake.rows_copied") <= 2.4 * lk.row_count("t")

    @pytest.mark.parametrize("n", [1, 4, 5, 16, 45, 64])
    @pytest.mark.parametrize("per_segment", [4, 16])
    def test_equal_pieces_leave_one_segment_per_ceiling(self, n, per_segment):
        # A segment seals when the next piece would pass the ceiling, so
        # N equal pieces leave ceil(rows / ceiling) segments, and every
        # sealed segment copied its rows under twice.
        ceiling = per_segment * 64
        METRICS.reset()
        with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", ceiling):
            lk = windows(n)
        assert lk.segment_count("t") == math.ceil(n * 64 / ceiling)
        assert lk.row_count("t") == n * 64
        if n % per_segment == 0:
            assert METRICS.counter("lake.rows_copied") < 2 * n * 64

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
        # Past the patch the four full segments could pair up, but a
        # sealed segment is never reopened: one more piece joins the
        # open one, and the sealed three are the same objects.
        sealed = lk._tables["t"][:3]
        windows(1, lake=lk, first=16)
        assert lk.segment_count("t") == 4
        assert lk._tables["t"][:3] == sealed
        assert lk.piece_count("t") == 17

    def test_retention_counts_match_uncoalesced_pieces(self):
        lk = windows(45)
        t_maxes = [w * 15.0 + 63 * (15.0 / 64) for w in range(45)]
        for horizon in (-1.0, 14.9, 15.0, 100.0, 100.0, 400.0, 1e9):
            expected = sum(1 for m in t_maxes if m < horizon)
            t_maxes = [m for m in t_maxes if m >= horizon]
            assert lk.drop_before("t", horizon) == expected
            assert lk.piece_count("t") == len(t_maxes)
            assert lk.row_count("t") == 64 * len(t_maxes)


def frozen(table):
    """Each column's bytes (numeric) or values (strings), by name."""
    return {
        n: a.tolist() if a.dtype == object else (a.dtype, a.tobytes())
        for n, a in table.columns().items()
    }


class TestOpenSegment:
    """Published rows never change, whatever the open segment does next."""

    def tagged(self, w, rows=64, dtype=float):
        return ColumnTable(
            {
                "timestamp": w * 15.0 + np.arange(rows) * (15.0 / rows),
                "v": np.full(rows, w).astype(dtype),
                "tag": [f"w{w}"] * rows,
            }
        )

    def history(self, lk):
        """Ingests that regrow the open segment, slice its front by
        retention and then append past the slice, flip a dtype, and run
        into the ceiling — with the segment snapshots and query results
        taken after each step, and what they held at the time."""
        taken = []

        def take():
            for seg in lk._tables["t"]:
                taken.append((seg.table, frozen(seg.table)))
            for out in (lk.query("t"), lk.query("t", 30.0, 75.0, columns=["v", "tag"])):
                taken.append((out, frozen(out)))

        for w in range(5):  # capacities 64, 128, 256, 512 rows
            lk.ingest("t", self.tagged(w))
            take()
        lk.drop_before("t", 30.0)  # pieces 0 and 1 leave the front
        take()
        for w in range(5, 9):  # past the slice to 512, then a regrowth
            lk.ingest("t", self.tagged(w))
            take()
        for w in range(9, 18):  # dtype flip seals; piece 17 passes 8 x 64
            lk.ingest("t", self.tagged(w, dtype=np.int64))
            take()
        return taken

    def test_snapshots_and_results_never_change(self):
        lk = TimeSeriesLake()
        with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", 8 * 64):
            taken = self.history(lk)
        for table, then in taken:
            assert frozen(table) == then

    def test_the_history_hits_every_open_segment_event(self):
        lk = TimeSeriesLake()
        METRICS.reset()
        with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", 8 * 64):
            self.history(lk)
        # Pieces 2..8 stayed in the first open segment (the drop sliced
        # 0 and 1 off its front), 9..16 fill the ceiling in the second,
        # and 17 opens the third.
        assert [len(s.ends) for s in lk._tables["t"]] == [7, 8, 1]
        assert lk.piece_count("t") == 16
        assert lk.row_count("t") == 16 * 64
        # 18 pieces appended; regrowths moved 1 + 2 + 4 pieces, then the
        # 6 live ones for piece 8 (same capacity: the sliced front is
        # what made room), then 1 + 2 + 4 in the second segment.
        assert METRICS.counter("lake.rows_copied") == (18 + 7 + 6 + 7) * 64

    def test_a_query_result_aliases_no_segment(self):
        lk = TimeSeriesLake()
        for w in range(3):
            lk.ingest("t", self.tagged(w))
        held = list(lk._open["t"].buffer.columns().values())
        for args in ((), (15.0, 30.0), (0.0, 45.0)):
            out = lk.query("t", *args)
            for a in out.columns().values():
                assert not any(np.shares_memory(a, b) for b in held)

    def test_a_sealed_segment_holds_exactly_its_rows(self):
        # Both seal causes: a dtype change (pieces 0..4, 320 rows in a
        # 512-row buffer) and the ceiling (pieces 5..12 of int64 fill
        # 8 x 64; piece 13 opens the third segment).  Each time, the
        # last snapshot is copied into arrays of its own rows; its
        # contents and nbytes are what the open segment published.
        lk = TimeSeriesLake()
        with mock.patch.object(lake_module, "SEGMENT_ROW_CEILING", 8 * 64):
            for w in range(14):
                dtype = float if w < 5 else np.int64
                if w in (5, 13):
                    snapshot = lk._tables["t"][-1].table
                    then, size = frozen(snapshot), snapshot.nbytes
                    buffer = list(lk._open["t"].buffer.columns().values())
                lk.ingest("t", self.tagged(w, dtype=dtype))
                if w in (5, 13):
                    sealed = lk._tables["t"][-2].table
                    assert frozen(sealed) == frozen(snapshot) == then
                    assert sealed.nbytes == snapshot.nbytes == size
                    for a in sealed.columns().values():
                        assert a.base is None and len(a) == sealed.num_rows
                        assert not any(np.shares_memory(a, b) for b in buffer)
        assert [len(s.ends) for s in lk._tables["t"]] == [5, 8, 1]
        assert lk.nbytes("t") == sum(
            self.tagged(w, dtype=float if w < 5 else np.int64).nbytes
            for w in range(14)
        )

    def test_a_retention_seal_copies_what_it_keeps(self):
        # Piece 1 outlives piece 2, the open segment's newest: dropping
        # piece 2 seals the segment, and piece 1 is kept in arrays of
        # its own rows.
        lk = TimeSeriesLake()
        for w, span in ((0, 15.0), (1, 100.0), (2, 15.0)):
            rows = 64
            lk.ingest(
                "t",
                ColumnTable(
                    {
                        "timestamp": w * 15.0 + np.arange(rows) * (span / rows),
                        "v": np.full(rows, float(w)),
                        "tag": [f"w{w}"] * rows,
                    }
                ),
            )
        want = frozen(lk.query("t", 15.0, 30.0))
        assert lk.drop_before("t", 60.0) == 2
        assert "t" not in lk._open
        (seg,) = lk._tables["t"]
        assert seg.table.num_rows == 64
        for a in seg.table.columns().values():
            assert a.base is None and len(a) == 64
        assert frozen(lk.query("t", 15.0, 30.0)) == want

    def test_nbytes_counts_rows_held_not_capacity(self):
        lk = TimeSeriesLake()
        for w in range(5):  # 320 rows in a 512-row open segment
            lk.ingest("t", self.tagged(w))
        assert lk.nbytes("t") == sum(self.tagged(w).nbytes for w in range(5))
        lk.drop_before("t", 30.0)
        assert lk.nbytes("t") == sum(self.tagged(w).nbytes for w in range(2, 5))


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
# Mostly ingests and queries, so that queries meet several segments;
# the occasional drop usually takes a prefix, not everything.  A
# "recent" drop's horizon lies just past the k-th last piece's maximum
# time, so it often slices the front off the open segment and keeps
# its tail.
OPS = st.lists(
    st.one_of(
        *[pieces()] * 4,
        *[QUERY] * 3,
        *[st.tuples(st.just("drop"), st.integers(-5, 120).map(float))] * 2,
        *[st.tuples(st.just("recent drop"), st.integers(1, 8))] * 2,
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
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_random_histories_match_the_piece_list_oracle(ops, ceiling):
    lk, oracle = TimeSeriesLake(), PieceListOracle()
    start, serial, dtype = 0, 0, np.int64
    published = []  # every result and segment table, as it was then
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
            elif op[0].endswith("drop"):
                horizon = op[1]
                if op[0] == "recent drop":
                    maxes = [p[1] for p in oracle.pieces] or [0.0]
                    horizon = maxes[-min(op[1], len(maxes))] + 0.5
                assert lk.drop_before("t", horizon) == oracle.drop_before(horizon)
            else:
                expected = oracle.query(*op[1:])
                result = lk.query("t", *op[1:])
                assert_identical(result, expected)
                with baseline_mode():
                    assert_identical(lk.query("t", *op[1:]), expected)
                published.append((result, frozen(result)))
            tables = [p[2] for p in oracle.pieces]
            assert lk.piece_count("t") == len(tables)
            assert lk.segment_count("t") <= len(tables)
            assert lk.row_count("t") == sum(t.num_rows for t in tables)
            assert lk.nbytes("t") == sum(t.nbytes for t in tables)
            assert lk.time_bounds("t") == oracle.time_bounds()
            published += [(g.table, frozen(g.table)) for g in lk._tables.get("t", [])]
    for table, then in published:
        assert frozen(table) == then


@given(
    steps=st.lists(
        st.tuples(st.integers(1, 5), st.integers(0, 4)), min_size=1, max_size=60
    )
)
@settings(deadline=None)
def test_open_segment_histories_keep_every_snapshot(steps):
    # One dtype and no ceiling in reach, so every piece lands in the one
    # open segment; piece w spans [w, w + 1), and a step with back > 0
    # then drops all but the last ``back`` pieces, slicing the open
    # segment's front so that later appends regrow past the slice.
    lk, oracle = TimeSeriesLake(), PieceListOracle()
    published = []
    for w, (rows, back) in enumerate(steps):
        table = ColumnTable(
            {
                "timestamp": w + np.arange(rows) / rows,
                "v": 10 * w + np.arange(rows),
                "tag": [f"w{w}"] * rows,
            }
        )
        assert oracle.ingest(table)
        lk.ingest("t", table)
        if back:
            horizon = float(w - back + 1)
            assert lk.drop_before("t", horizon) == oracle.drop_before(horizon)
        assert lk.segment_count("t") == (1 if oracle.pieces else 0)
        result = lk.query("t")
        assert_identical(result, oracle.query(None, None, None, None))
        published += [(result, frozen(result))]
        published += [(g.table, frozen(g.table)) for g in lk._tables["t"]]
    for table, then in published:
        assert frozen(table) == then
