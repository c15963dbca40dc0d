"""Unit + property tests for the RCF file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.columnar import (
    Col,
    ColumnTable,
    RcfReader,
    RcfWriter,
    read_table,
    write_table,
)
from repro.perf import baseline_mode


def make_table(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return ColumnTable(
        {
            "timestamp": np.arange(n, dtype=np.float64) * 15.0,
            "node": rng.integers(0, 16, n).astype(np.int32),
            "power": rng.normal(2000.0, 300.0, n),
            "project": rng.choice(["PRJA", "PRJB", "PRJC"], n).tolist(),
        }
    )


class TestRoundTrip:
    @pytest.mark.parametrize("codec", ["none", "fast", "high"])
    def test_full_roundtrip(self, codec):
        t = make_table()
        out = read_table(write_table(t, codec=codec))
        assert out == t

    def test_multiple_row_groups(self):
        t = make_table(n=1000)
        buf = write_table(t, row_group_size=128)
        reader = RcfReader(buf)
        assert reader.num_row_groups == 8
        assert reader.read() == t

    def test_append_multiple_tables(self):
        writer = RcfWriter()
        a, b = make_table(100, 0), make_table(50, 1)
        writer.append(a)
        writer.append(b)
        assert writer.num_rows == 150
        out = RcfReader(writer.finish()).read()
        assert out == ColumnTable.concat([a, b])

    def test_schema_mismatch_rejected(self):
        writer = RcfWriter()
        writer.append(ColumnTable({"a": [1.0]}))
        with pytest.raises(ValueError):
            writer.append(ColumnTable({"b": [1.0]}))

    def test_dtype_change_rejected(self):
        # One dtype per column per file, as a Parquet schema fixes a
        # column's physical type for every row group: an int table and
        # then a float one must not make a file whose groups disagree.
        writer = RcfWriter(row_group_size=4)
        writer.append(ColumnTable({"a": np.arange(6, dtype=np.int64)}))
        for other in (np.arange(3.0), np.arange(3, dtype=np.int32)):
            with pytest.raises(ValueError, match="dtype"):
                writer.append(ColumnTable({"a": other}))
        assert writer.num_rows == 6
        writer.append(ColumnTable({"a": np.arange(3, dtype=np.int64)}))
        out = RcfReader(writer.finish()).read()
        assert out["a"].dtype == np.int64 and out.num_rows == 9

    def test_empty_append_ignored(self):
        writer = RcfWriter()
        writer.append(ColumnTable({}))
        writer.append(make_table(10))
        assert RcfReader(writer.finish()).num_rows == 10

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            RcfReader(b"JUNKdata")

    def test_invalid_writer_params(self):
        with pytest.raises(ValueError):
            RcfWriter(codec="zstd")
        with pytest.raises(ValueError):
            RcfWriter(row_group_size=0)

    @given(
        x=hnp.arrays(np.float64, st.integers(1, 200), elements=st.floats(-1e9, 1e9)),
        row_group_size=st.integers(1, 64),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_roundtrip_any_grouping(self, x, row_group_size):
        t = ColumnTable({"x": x})
        out = read_table(write_table(t, row_group_size=row_group_size))
        assert out == t


def _bits(col):
    return np.ascontiguousarray(col).tobytes()


def _counter(hole):
    col = np.arange(1000, dtype=np.float64) * 15.0
    col[400] = hole
    return col


#: A NaN whose payload is not the canonical one.
_PAYLOAD_NAN = np.frombuffer(b"\x01\x00\x00\x00\x00\x00\xf8\x7f", "<f8")[0]


class TestBitExactFloats:
    """A float column reads back bit for bit, whatever encoding the
    estimator prefers: a chunk whose RLE, DELTA or DICTIONARY decode
    would differ is stored PLAIN, by the fast and the baseline writer
    alike."""

    @pytest.mark.parametrize(
        "col",
        [
            _counter(np.nan),  # DELTA: NaN from the hole onward
            _counter(np.inf),
            np.tile([0.0, -0.0], 500),  # RLE: one run of +0.0
            np.tile([0.0, -0.0, 1.0, 2.0], 250),  # DICTIONARY: -0.0 folds
            np.repeat([np.nan, _PAYLOAD_NAN], 500),  # RLE: payloads merge
            np.cumsum(np.r_[0.1, np.full(299, 0.1)]),  # DELTA: last bits
        ],
        ids=["nan-hole", "inf-hole", "signed-zero-runs", "signed-zero-dict",
             "nan-payloads", "iterated-add-grid"],  # fmt: skip
    )
    def test_lossy_shapes_round_trip(self, col):
        table = ColumnTable({"x": col})
        buf = write_table(table)
        with baseline_mode():
            assert write_table(table) == buf
        assert _bits(read_table(buf)["x"]) == _bits(col)

    @given(
        x=hnp.arrays(
            np.float64,
            st.integers(1, 300),
            elements=st.sampled_from([0.0, -0.0, 1.5, -2.0, np.nan, np.inf])
            | st.floats(allow_nan=True, allow_infinity=True),
        ),
        row_group_size=st.integers(1, 128),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_any_floats_round_trip(self, x, row_group_size):
        buf = write_table(ColumnTable({"x": x}), row_group_size=row_group_size)
        assert _bits(read_table(buf)["x"]) == _bits(x)


class TestProjection:
    def test_column_projection(self):
        buf = write_table(make_table())
        out = read_table(buf, columns=["power", "node"])
        assert out.column_names == ["power", "node"]

    def test_unknown_column_rejected(self):
        buf = write_table(make_table())
        with pytest.raises(KeyError):
            read_table(buf, columns=["nope"])


class TestPredicatePushdown:
    def test_filter_matches_in_memory_filter(self):
        t = make_table()
        buf = write_table(t, row_group_size=100)
        pred = (Col("power") > 2100.0) & (Col("project") == "PRJA")
        out = read_table(buf, predicate=pred)
        expected = t.filter(pred.mask(t))
        assert out == expected

    def test_time_sorted_data_prunes_row_groups(self):
        t = make_table(n=10_000)
        buf = write_table(t, row_group_size=500)
        reader = RcfReader(buf)
        # Timestamps are sorted, so a narrow window touches few groups.
        pred = Col("timestamp").between(30_000.0, 31_000.0)
        kept = [
            pred.might_match(reader.group_stats(g))
            for g in range(reader.num_row_groups)
        ]
        assert kept.count(False) > kept.count(True)
        out = reader.read(predicate=pred)
        assert out.num_rows == t.filter(pred.mask(t)).num_rows

    def test_impossible_predicate_reads_nothing(self):
        buf = write_table(make_table())
        out = read_table(buf, predicate=Col("power") > 1e12)
        assert out.num_rows == 0

    def test_predicate_with_projection(self):
        t = make_table()
        buf = write_table(t)
        out = read_table(buf, columns=["node"], predicate=Col("power") > 2000.0)
        assert out.column_names == ["node"]
        assert out.num_rows == (t["power"] > 2000.0).sum()


    def test_group_stats_are_shared_and_read_only(self):
        # Parsed once with the group header and handed to every caller
        # (the scan's prune, the manifest merge), so no caller may edit
        # what the next one reads.
        reader = RcfReader(write_table(make_table(), row_group_size=100))
        stats = reader.group_stats(3)
        assert reader.group_stats(3) is stats
        assert stats["timestamp"] == (4500.0, 5985.0)
        with pytest.raises(TypeError):
            stats["timestamp"] = (0.0, 0.0)
        with pytest.raises(TypeError):
            del stats["power"]
        with pytest.raises(AttributeError):
            stats.pop("power")
        assert reader.group_stats(3)["timestamp"] == (4500.0, 5985.0)
        assert reader.header_parse_count == 1


class TestCompressionBehaviour:
    def test_telemetry_like_data_compresses_well(self):
        """Sorted long-format telemetry must compress strongly (the paper's
        'significant data compression' claim for the Parquet choice)."""
        n = 20_000
        t = ColumnTable(
            {
                "timestamp": np.repeat(np.arange(n // 20) * 15.0, 20),
                "sensor": np.tile(np.arange(20, dtype=np.int16), n // 20),
                "value": np.round(
                    np.random.default_rng(0).normal(100, 5, n), 1
                ),
            }
        )
        buf = write_table(t, codec="high")
        raw = sum(t[c].nbytes for c in t.column_names)
        assert len(buf) < raw / 3

    def test_stats_recorded_per_group(self):
        buf = write_table(make_table(100))
        stats = RcfReader(buf).group_stats(0)
        lo, hi = stats["timestamp"]
        assert lo == 0.0 and hi == 99 * 15.0
        assert stats["project"] == ("PRJA", "PRJC")
