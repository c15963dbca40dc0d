"""RCF v2: seekable footer, lazy open, cheap codec, appends.

The v2 format — the only layout the writer writes and the reader
reads — exists to make the write plane cheap and the open path O(1);
everything here pins the properties the rest of the data plane leans
on: group headers parse lazily from the footer, every chunk (a string
DICTIONARY chunk with its vocabulary included) decodes from its own
group alone, and incompressible chunks skip zlib without changing
decoded bytes.
"""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable
from repro.columnar.encodings import DICTIONARY
from repro.columnar.file_format import (
    _CHEAP_ENTROPY_BITS,
    _CHEAP_SAMPLE_BYTES,
    _CHEAP_SKIP_RATIO,
    RcfFormatError,
    RcfReader,
    RcfWriter,
    write_table,
)
from repro.perf import baseline_mode


def make_table(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    return ColumnTable(
        {
            "timestamp": np.arange(n, dtype=np.float64) * 0.5,
            "node": np.repeat(np.arange(n // 10 + 1), 10)[:n].astype(
                np.int32
            ),
            "host": np.array(
                [f"nid{i % 7:05d}.hsn.cluster.example.internal"
                 for i in range(n)],
                dtype=object,
            ),
            "power": rng.normal(550.0, 40.0, n),
        }
    )


def fixture_table():
    return make_table(200, seed=3)


def fixture_as_v2():
    return write_table(fixture_table(), codec="high", row_group_size=64)


def assert_tables_equal(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a[name], b[name]
        assert ca.dtype == cb.dtype
        if ca.dtype == object:
            assert list(ca) == list(cb)
        else:
            assert ca.tobytes() == cb.tobytes()


class TestVersionGate:
    def test_writer_versions_round_trip(self):
        # The writer's one version reads back, one group or several.
        t = make_table()
        for rows in (128, 4096):
            r = RcfReader(write_table(t, row_group_size=rows))
            assert r.num_row_groups == -(-t.num_rows // rows)
            assert_tables_equal(r.read(), t)

    def test_magic_bytes(self):
        buf = write_table(make_table(32))
        assert buf[:4] == b"RCF2"
        assert buf[-4:] == b"RCF2"

    def test_unknown_version_rejected(self):
        buf = write_table(make_table(32))
        for magic in (b"RCF1", b"RCF3"):
            with pytest.raises(RcfFormatError):
                RcfReader(magic + buf[4:])

    def test_truncated_v2_tail_rejected(self):
        buf = write_table(make_table(32))
        with pytest.raises(RcfFormatError):
            RcfReader(buf[:-2])


class TestLazyOpen:
    def test_open_parses_no_group_headers(self):
        buf = write_table(make_table(4000), row_group_size=100)
        r = RcfReader(buf)
        assert r.num_row_groups == 40
        assert r.header_parse_count == 0
        assert r.num_rows == 4000  # row counts come from the footer

    def test_open_cost_is_o1_in_group_count(self):
        """Opening a 64-group file does exactly as much header work as a
        1-group file — the regression the ROADMAP flagged ('re-reads
        headers where a seek would do')."""
        small = RcfReader(write_table(make_table(100), row_group_size=100))
        big = RcfReader(write_table(make_table(6400), row_group_size=100))
        assert big.num_row_groups == 64
        assert small.header_parse_count == big.header_parse_count == 0

    def test_groups_parse_on_first_touch_only(self):
        r = RcfReader(write_table(make_table(1000), row_group_size=100))
        r.decode_group_column(7, "power")
        assert r.header_parse_count == 1
        r.decode_group_column(7, "timestamp")  # same group: cached
        assert r.header_parse_count == 1
        r.group_stats(3)
        assert r.header_parse_count == 2
        # A string DICTIONARY chunk carries its own vocabulary: its
        # decode touches no other group.
        assert r.group_encoding(7, "host") == DICTIONARY
        r.decode_group_column(7, "host")
        assert r.header_parse_count == 2

    def test_lazy_read_equals_eager_read(self):
        # A reader whose every header was parsed up front answers as a
        # fresh one that parses them as the read reaches them.
        eager = RcfReader(fixture_as_v2())
        for g in range(eager.num_row_groups):
            eager.group_stats(g)
        assert eager.header_parse_count == eager.num_row_groups == 4
        lazy = RcfReader(fixture_as_v2())
        assert lazy.header_parse_count == 0
        assert_tables_equal(lazy.read(), fixture_table())
        lazy = RcfReader(fixture_as_v2())
        pred = Col("power") > 560.0
        assert_tables_equal(eager.read(predicate=pred), lazy.read(predicate=pred))
        assert [pred.might_match(eager.group_stats(g)) for g in range(4)] == [
            pred.might_match(lazy.group_stats(g)) for g in range(4)
        ]
        assert lazy.header_parse_count == 4


class TestCheapCodec:
    def test_incompressible_chunks_skip_zlib(self):
        rng = np.random.default_rng(1)
        t = ColumnTable({"noise": rng.random(50_000)})
        r = RcfReader(write_table(t, codec="high"))
        meta = r._group(0).chunks["noise"]
        assert meta.codec == "none"  # stored raw: sampling said ~incompressible
        assert_tables_equal(r.read(), t)

    def test_compressible_chunks_still_compress(self):
        t = ColumnTable(
            {"gauge": np.tile(np.arange(16, dtype=np.float64), 4096)}
        )
        buf = write_table(t, codec="fast")
        assert len(buf) < t["gauge"].nbytes / 4

    def test_tiny_chunks_never_compress(self):
        t = ColumnTable({"v": np.arange(4, dtype=np.float64)})
        r = RcfReader(write_table(t, codec="high"))
        assert r._group(0).chunks["v"].codec == "none"

    def test_thresholds_are_sane(self):
        assert _CHEAP_SAMPLE_BYTES >= 1024
        assert 0.5 < _CHEAP_SKIP_RATIO < 1.0
        assert 1.0 < _CHEAP_ENTROPY_BITS < 8.0

    def test_midsize_high_entropy_chunks_skip_zlib(self):
        # Between the tiny and the probe thresholds, the entropy gate
        # decides: ~random doubles stay raw without ever calling zlib.
        rng = np.random.default_rng(3)
        t = ColumnTable({"noise": rng.random(256)})
        r = RcfReader(write_table(t, codec="fast"))
        assert 64 < t["noise"].nbytes <= _CHEAP_SAMPLE_BYTES
        assert r._group(0).chunks["noise"].codec == "none"
        assert_tables_equal(r.read(), t)

    def test_midsize_low_entropy_chunks_still_compress(self):
        # A repetitive mid-size chunk sits well under the entropy bar
        # and still goes through zlib.
        t = ColumnTable({"gauge": np.tile(np.arange(4.0), 64)})
        r = RcfReader(write_table(t, codec="fast"))
        meta = r._group(0).chunks["gauge"]
        assert meta.codec == "fast"
        assert_tables_equal(r.read(), t)

    def test_rule_is_identical_under_baseline_mode(self):
        """The cheap-codec rule is format-level, not a fast-path
        toggle: baseline_mode writes the very same bytes."""
        t = make_table(2000, seed=4)
        fast = write_table(t, codec="high", row_group_size=256)
        with baseline_mode():
            base = write_table(t, codec="high", row_group_size=256)
        assert fast == base


class TestWriterStreamingAppend:
    def test_multi_append_v2_round_trips(self):
        w = RcfWriter(row_group_size=64)
        pieces = [make_table(100, seed=s) for s in range(3)]
        for p in pieces:
            w.append(p)
        assert w.num_rows == 300
        out = RcfReader(w.finish()).read()
        assert_tables_equal(out, ColumnTable.concat(pieces))

    @pytest.mark.parametrize("groups_per_append", [1, 2, 3])
    def test_aligned_appends_equal_one_write_of_the_concatenation(
        self, groups_per_append
    ):
        """Appends that end on row-group boundaries are the file
        ``write_table`` makes of the whole, byte for byte — vocabulary
        changes across the append seams included."""
        whole = self._vocab_table()
        step = 64 * groups_per_append
        w = RcfWriter(codec="high", row_group_size=64)
        for start in range(0, whole.num_rows, step):
            w.append(whole.slice(start, start + step))
        assert w.finish() == write_table(whole, codec="high", row_group_size=64)

    def _vocab_table(self):
        pieces = []
        for seed, hosts in enumerate([("a", "b"), ("a", "b"), ("c",), ("a", "b")]):
            t = make_table(150, seed=seed)
            pieces.append(
                t.with_column(
                    "host",
                    np.array([hosts[i % len(hosts)] for i in range(150)], dtype=object),
                )
            )
        return ColumnTable.concat(pieces)  # 600 rows: 9 groups of 64 + 24

    @pytest.mark.parametrize("adopted", [1, 2, 4, 6])
    def test_copied_prefix_equals_one_write_of_the_concatenation(self, adopted):
        """Groups copied from a file of the leading rows, then the rest
        appended: the file ``write_table`` makes of the whole — whether
        the next group repeats a copied vocabulary (1, 2, 6) or brings a
        new one (4: the group of rows 256..319 is the first to hold a
        ``c``)."""
        whole = self._vocab_table()
        first = RcfReader(
            write_table(whole.slice(0, 420), codec="high", row_group_size=64)
        )
        w = RcfWriter(codec="high", row_group_size=64)
        assert w.append_encoded(first, adopted) == adopted
        assert w.num_rows == adopted * 64
        w.append(whole.slice(adopted * 64, whole.num_rows))
        assert w.finish() == write_table(whole, codec="high", row_group_size=64)

    def test_only_groups_that_would_re_encode_the_same_are_copied(self):
        whole = self._vocab_table()
        blob = write_table(whole.slice(0, 200), codec="high", row_group_size=64)
        reader = RcfReader(blob)  # 3 full groups + 8 rows
        assert RcfWriter("high", 64).append_encoded(reader, 99) == 3  # not the ragged one
        assert RcfWriter("high", 64).append_encoded(reader, 0) == 0
        assert RcfWriter("high", 32).append_encoded(reader, 99) == 0  # other group size
        assert RcfWriter("fast", 64).append_encoded(reader, 99) == 0  # other codec
        started = RcfWriter("high", 64)
        started.append(whole.slice(0, 64))
        with pytest.raises(ValueError):
            started.append_encoded(reader, 1)

    def test_empty_file_round_trips(self):
        r = RcfReader(RcfWriter().finish())
        assert r.num_row_groups == 0
        assert r.num_rows == 0
