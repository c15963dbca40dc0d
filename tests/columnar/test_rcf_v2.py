"""RCF v2: seekable footer, lazy open, DICT_REF, cheap codec, v1 compat.

The v2 format exists to make the write plane cheap and the open path
O(1); everything here pins the properties the rest of the data plane
leans on — archived v1 parts stay readable, group headers parse lazily
from the footer, shared string vocabularies collapse to back-references,
and incompressible chunks skip zlib without changing decoded bytes.

The writer writes v2 only, so v1 is read from a committed fixture.
"""

import os

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable
from repro.columnar.encodings import DICTIONARY
from repro.columnar.file_format import (
    _CHEAP_ENTROPY_BITS,
    _CHEAP_SAMPLE_BYTES,
    _CHEAP_SKIP_RATIO,
    DICT_REF,
    RcfReader,
    RcfWriter,
    clear_chunk_memo,
    read_table,
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


#: ``write_table(make_table(200, seed=3), codec="high", row_group_size=64,
#: version=1)`` as the v1 writer produced it: 3 full row groups and 8 rows.
with open(
    os.path.join(
        os.path.dirname(__file__), "data", "v1_make_table_200_seed3_high_rg64.rcf"
    ),
    "rb",
) as _fh:
    V1_FIXTURE = _fh.read()
#: ``RcfWriter(version=1).finish()``: a v1 file with no columns or groups.
V1_EMPTY = b"RCF1\x00\x00\x00\x00\x00\x00"


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
        t = make_table()
        r = RcfReader(write_table(t, row_group_size=128))
        assert r.version == 2
        assert_tables_equal(r.read(), t)
        r = RcfReader(V1_FIXTURE)
        assert r.version == 1
        assert_tables_equal(r.read(), fixture_table())

    def test_magic_bytes(self):
        assert V1_FIXTURE[:4] == b"RCF1"
        buf = write_table(make_table(32))
        assert buf[:4] == b"RCF2"
        assert buf[-4:] == b"RCF2"

    def test_unknown_version_rejected(self):
        buf = write_table(make_table(32))
        with pytest.raises(ValueError):
            RcfReader(b"RCF3" + buf[4:])

    def test_truncated_v2_tail_rejected(self):
        buf = write_table(make_table(32))
        with pytest.raises(ValueError):
            RcfReader(buf[:-2])

    def test_v1_fixture_blob_remains_readable(self):
        """A byte-for-byte v1 blob (as archived OCEAN parts written
        before v2 are) decodes through today's reader."""
        r = RcfReader(V1_FIXTURE)
        assert r.version == 1
        assert r.num_row_groups == 4
        assert_tables_equal(r.read(), fixture_table())
        assert_tables_equal(
            read_table(V1_FIXTURE, columns=["power"], predicate=Col("power") > 550.0),
            read_table(
                fixture_as_v2(),
                columns=["power"],
                predicate=Col("power") > 550.0,
            ),
        )


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
        # DICT_REF decode touches exactly one extra group: its donor.
        r.decode_group_column(7, "host")
        assert r.header_parse_count == 3

    def test_v1_still_parses_eagerly(self):
        r = RcfReader(V1_FIXTURE)
        assert r.header_parse_count == r.num_row_groups == 4

    def test_lazy_read_equals_eager_read(self):
        v1 = RcfReader(V1_FIXTURE)
        v2 = RcfReader(fixture_as_v2())
        assert v2.header_parse_count == 0
        assert_tables_equal(v1.read(), v2.read())
        pred = Col("power") > 560.0
        assert_tables_equal(v1.read(predicate=pred), v2.read(predicate=pred))
        assert v1.scan_stats(pred) == v2.scan_stats(pred)


class TestDictRef:
    def test_repeated_vocab_becomes_back_reference(self):
        t = make_table(1000)
        r = RcfReader(write_table(t, row_group_size=100))
        encs = [r.group_encoding(g, "host") for g in range(r.num_row_groups)]
        assert encs[0] == DICTIONARY
        assert all(e == DICT_REF for e in encs[1:])
        assert_tables_equal(r.read(), t)

    def test_back_reference_shrinks_the_file(self):
        v1 = RcfReader(V1_FIXTURE)  # every group carries its vocabulary
        v2 = RcfReader(fixture_as_v2())

        def host_bytes(r):
            return sum(
                r._group(g).chunks["host"].payload_len
                for g in range(r.num_row_groups)
            )

        assert [v2.group_encoding(g, "host") for g in range(4)] == [
            DICTIONARY, DICT_REF, DICT_REF, DICT_REF
        ]  # fmt: skip
        assert host_bytes(v2) < host_bytes(v1)
        assert len(v2.buffer) < len(v1.buffer)

    def test_vocab_change_resets_the_donor(self):
        """A group with a different vocabulary becomes the new donor;
        later groups reference it, not the stale one."""
        a = ColumnTable(
            {"host": np.array(["a", "b"] * 50, dtype=object),
             "v": np.arange(100, dtype=np.float64)}
        )
        b = ColumnTable(
            {"host": np.array(["c", "d"] * 50, dtype=object),
             "v": np.arange(100, dtype=np.float64)}
        )
        w = RcfWriter(row_group_size=50)
        w.append(a)
        w.append(b)
        w.append(a)
        r = RcfReader(w.finish())
        encs = [r.group_encoding(g, "host") for g in range(6)]
        assert encs == [
            DICTIONARY, DICT_REF, DICTIONARY, DICT_REF, DICTIONARY, DICT_REF
        ]
        out = r.read()
        assert list(out["host"]) == ["a", "b"] * 50 + ["c", "d"] * 50 + [
            "a", "b"
        ] * 50

    def test_dictionary_parts_follow_the_reference(self):
        t = make_table(500)
        r = RcfReader(write_table(t, row_group_size=100))
        direct = r.group_dictionary_parts(0, "host")
        via_ref = r.group_dictionary_parts(3, "host")
        assert via_ref is not None and direct is not None
        assert list(direct[0]) == list(via_ref[0])  # same vocabulary
        assert via_ref[2] is True
        got = direct[0][via_ref[1]]
        assert list(got) == list(t["host"][300:400])

    def test_null_strings_round_trip_through_dict_ref(self):
        vals = np.array(["x", None, "y", None] * 25, dtype=object)
        t = ColumnTable({"s": vals, "v": np.arange(100, dtype=np.float64)})
        r = RcfReader(write_table(t, row_group_size=50))
        assert r.group_encoding(1, "s") == DICT_REF
        assert list(r.read()["s"]) == list(vals)

    def test_numeric_dictionary_never_back_references(self):
        """DICT_REF is strings-only: numeric chunks flow through the
        chunk memo, where a position-dependent blob would be unsafe."""
        t = ColumnTable(
            {"cat": np.repeat(np.arange(4), 100).astype(np.int64)[
                np.tile(np.arange(400), 1)
            ]}
        )
        r = RcfReader(write_table(t, row_group_size=100))
        for g in range(r.num_row_groups):
            assert r.group_encoding(g, "cat") != DICT_REF


class TestCheapCodec:
    """Each write starts from an empty chunk memo, so the rule runs."""

    def test_incompressible_chunks_skip_zlib(self):
        rng = np.random.default_rng(1)
        t = ColumnTable({"noise": rng.random(50_000)})
        clear_chunk_memo()
        r = RcfReader(write_table(t, codec="high"))
        meta = r._group(0).chunks["noise"]
        assert meta.codec == "none"  # stored raw: sampling said ~incompressible
        assert_tables_equal(r.read(), t)

    def test_compressible_chunks_still_compress(self):
        t = ColumnTable(
            {"gauge": np.tile(np.arange(16, dtype=np.float64), 4096)}
        )
        clear_chunk_memo()
        buf = write_table(t, codec="fast")
        assert len(buf) < t["gauge"].nbytes / 4

    def test_tiny_chunks_never_compress(self):
        t = ColumnTable({"v": np.arange(4, dtype=np.float64)})
        clear_chunk_memo()
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
        clear_chunk_memo()
        r = RcfReader(write_table(t, codec="fast"))
        assert 64 < t["noise"].nbytes <= _CHEAP_SAMPLE_BYTES
        assert r._group(0).chunks["noise"].codec == "none"
        assert_tables_equal(r.read(), t)

    def test_midsize_low_entropy_chunks_still_compress(self):
        # A repetitive mid-size chunk sits well under the entropy bar
        # and still goes through zlib.
        t = ColumnTable({"gauge": np.tile(np.arange(4.0), 64)})
        clear_chunk_memo()
        r = RcfReader(write_table(t, codec="fast"))
        meta = r._group(0).chunks["gauge"]
        assert meta.codec == "fast"
        assert_tables_equal(r.read(), t)

    def test_rule_is_identical_under_baseline_mode(self):
        """The cheap-codec and DICT_REF rules are format-level, not
        fast-path toggles: baseline_mode writes the very same bytes."""
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
        back-references across the append seams included."""
        whole = self._vocab_table()
        step = 64 * groups_per_append
        w = RcfWriter(codec="high", row_group_size=64)
        for start in range(0, whole.num_rows, step):
            w.append(whole.slice(start, start + step))
        blob = w.finish()
        assert blob == write_table(whole, codec="high", row_group_size=64)
        r = RcfReader(blob)
        encs = [r.group_encoding(g, "host") for g in range(r.num_row_groups)]
        assert DICT_REF in encs and encs.count(DICTIONARY) >= 3

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
        the next group back-references a copied vocabulary (1, 2, 6) or
        brings a new one (4: the group of rows 256..319 is the first to
        hold a ``c``)."""
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
        v1 = RcfReader(V1_FIXTURE)  # 3 full groups, but no group index
        assert RcfWriter("high", 64).append_encoded(v1, 99) == 0
        started = RcfWriter("high", 64)
        started.append(whole.slice(0, 64))
        with pytest.raises(ValueError):
            started.append_encoded(reader, 1)

    def test_empty_file_round_trips(self):
        for buf in (V1_EMPTY, RcfWriter().finish()):
            r = RcfReader(buf)
            assert r.num_row_groups == 0
            assert r.num_rows == 0
