"""Raw PLAIN chunks are scanned in place.

A chunk that is PLAIN, stored raw (codec ``none``) and of a fixed-width
numeric or bool dtype decodes to a copy of bytes the reader already
holds, so scans take a read-only view of the part's buffer instead and
never hand the chunk to the row-group cache.  Everything else — and
every owning decode compaction, retention and the reference oracle use
— still copies into aligned arrays of its own.
"""

import gc
from collections import defaultdict

import numpy as np
import pytest

from repro.columnar import ColumnTable, write_table
from repro.columnar.file_format import RcfReader
from repro.columnar.predicate import Compare, Not, Or
from repro.query import cache as qcache
from repro.query.scan import fold_time_predicate, gather_part
from repro.storage import DataClass, TieredStore, TierPolicy

ROWS_PER_GROUP = 32
#: Chunks the writer stores raw at 32 rows a group (asserted below).
RAW = ("f", "b", "i16", "i32")
#: What a scan can project: a :class:`ColumnTable` holds no bool column,
#: so ``b`` is read only as a predicate column.
PROJECTED = ["timestamp", "f", "i16", "i32", "zf", "node", "dnum", "proj"]


@pytest.fixture(autouse=True)
def fresh_cache():
    qcache.clear_row_group_cache()
    yield
    qcache.clear_row_group_cache()


def mixed_table(n=128, seed=0):
    rng = np.random.default_rng(seed)
    f = rng.normal(100.0, 10.0, n)
    f[[3, 9, 40]] = np.nan
    f[[5, 70]] = np.inf
    f[[7, 100]] = -np.inf
    # A table holds no bool column, but an RCF file can, and a reader
    # must serve it (here: to a predicate) like any other raw chunk.
    return ColumnTable._derived(
        {
            "timestamp": np.arange(n, dtype=np.float64),  # DELTA
            "f": f,  # PLAIN, raw: noisy floats with NaN and ±inf
            "b": rng.random(n) < 0.5,  # PLAIN, raw
            "i16": rng.integers(-30_000, 30_000, n).astype(np.int16),
            "i32": rng.integers(-(2**31), 2**31 - 1, n).astype(np.int32),
            "zf": rng.integers(0, 10**6, n).astype(np.float64),  # PLAIN, zlib
            "node": np.repeat(np.arange(4.0), n // 4),  # RLE
            "dnum": rng.choice([1.5, 2.5, 3.5], n),  # numeric DICTIONARY
            "proj": np.array(
                [("A", "B")[i] for i in rng.integers(0, 2, n)], dtype=object
            ),  # DICTIONARY
        }
    )


def scan(reader, t0, t1, predicate, columns):
    """The rows of one part that survive, as the executor gathers them
    (:func:`gather_part`); None when none does."""
    pred = fold_time_predicate(predicate, "timestamp", t0, t1)
    pieces = gather_part(reader, pred, columns, defaultdict(int))
    if not pieces[0]:
        return None
    return ColumnTable.concat_columns(dict(zip(columns, pieces)))


@pytest.fixture
def reader():
    return RcfReader(write_table(mixed_table(), row_group_size=ROWS_PER_GROUP))


def chunk(reader, group, name):
    return reader._group(group).chunks[name]


def test_the_fixture_holds_every_kind_of_chunk(reader):
    kinds = {
        (chunk(reader, g, n).encoding, chunk(reader, g, n).codec)
        for g in range(reader.num_row_groups)
        for n in reader.column_names()
    }
    assert {(0, "none"), (0, "fast"), (1, "none"), (2, "none")} <= kinds
    assert (3, "fast") in kinds  # DICTIONARY
    for g in range(reader.num_row_groups):
        assert chunk(reader, g, "proj").encoding == 3
        for n in RAW:
            assert (chunk(reader, g, n).encoding, chunk(reader, g, n).codec) == (
                0,
                "none",
            )


def test_view_shares_the_buffer_and_is_read_only(reader):
    buf = np.frombuffer(reader.buffer, dtype=np.uint8)
    for g in range(reader.num_row_groups):
        for n in RAW:
            view = reader.raw_view(g, n)
            assert reader.raw_view(g, n) is view  # made once per chunk
            assert np.shares_memory(view, buf)
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = view[1]
            want = reader.decode_group_column(g, n)
            assert view.dtype == want.dtype
            assert view.tobytes() == want.tobytes()


def test_only_raw_fixed_width_plain_chunks_get_a_view(reader):
    for g in range(reader.num_row_groups):
        for n in ("timestamp", "zf", "node", "dnum", "proj"):
            assert reader.raw_view(g, n) is None, (g, n)


def test_raw_chunks_never_enter_the_cache(reader, monkeypatch):
    views = []
    raw_view = RcfReader.raw_view

    def counted(self, group, name):
        view = raw_view(self, group, name)
        if view is not None:
            views.append(name)
        return view

    monkeypatch.setattr(RcfReader, "raw_view", counted)
    raw = ["f", "i16", "i32"]
    out = scan(reader, None, None, None, raw)
    assert out.num_rows == reader.num_rows
    assert qcache.row_group_cache_stats()["entries"] == 0
    assert sorted(views) == sorted(raw * reader.num_row_groups)
    # A predicate on a raw column is judged on the view, not a decode.
    pred = Compare("f", ">", 100.0) & Compare("b", "==", 1)
    scan(reader, None, None, pred, ["i16"])
    assert qcache.row_group_cache_stats()["entries"] == 0
    # Compressed PLAIN, RLE, DELTA and dictionary chunks still cache.
    for n in ("zf", "node", "timestamp", "dnum", "proj"):
        before = qcache.row_group_cache_stats()["entries"]
        scan(reader, None, None, None, [n])
        assert (
            qcache.row_group_cache_stats()["entries"] - before
            == reader.num_row_groups
        ), n


PREDICATES = [
    None,
    Compare("f", ">", 100.0),
    Compare("f", "!=", 100.0),  # NaN rows satisfy !=
    Not(Compare("f", "<", 95.0)),
    Compare("f", "==", np.inf),
    Compare("b", "==", 1),
    Or(Compare("i16", "<", 0), Compare("i32", ">=", 2**30)),
    Compare("i16", "!=", 0) & Compare("f", "<=", 110.0),
]


@pytest.mark.parametrize("predicate", PREDICATES, ids=str)
@pytest.mark.parametrize("window", [(None, None), (10.0, 90.0)])
def test_views_answer_exactly_as_the_decoded_path(
    reader, monkeypatch, predicate, window
):
    t0, t1 = window
    in_place = scan(reader, t0, t1, predicate, PROJECTED)
    monkeypatch.setattr(RcfReader, "raw_view", lambda self, g, n: None)
    qcache.clear_row_group_cache()
    decoded = scan(reader, t0, t1, predicate, PROJECTED)
    assert (in_place is None) == (decoded is None)
    if in_place is None:
        return
    for n in in_place.column_names:
        assert in_place[n].dtype == decoded[n].dtype
    assert write_table(in_place) == write_table(decoded)
    # And both match the brute-force mask over the table written.
    whole = mixed_table()
    ts = whole["timestamp"]
    mask = (ts >= (-np.inf if t0 is None else t0)) & (
        ts < (np.inf if t1 is None else t1)
    )
    if predicate is not None:
        mask &= predicate.mask(whole)
    expected = whole.filter(mask).select(PROJECTED)
    assert write_table(in_place) == write_table(expected)


def test_result_outlives_its_retired_part():
    policy = TierPolicy(
        lake_retention_s=None,
        ocean_retention_s=float("inf"),
        glacier=False,
        row_group_size=ROWS_PER_GROUP,
    )
    ts = TieredStore(policies={DataClass.SILVER: policy})
    ts.register("d", DataClass.SILVER)
    table = ColumnTable(
        {
            "timestamp": np.arange(64, dtype=np.float64),
            "value": np.random.default_rng(3).normal(100.0, 10.0, 64),
        }
    )
    ts.ingest("d", table, now=0.0)
    assert ts.query_archive("d") == table  # opens the part's handle
    (part,) = ts._live_parts("d")
    reader = part.reader
    pred = fold_time_predicate(None, "timestamp", 0.0, 32.0)
    ((held,),) = gather_part(reader, pred, ["value"], defaultdict(int))
    assert np.shares_memory(held, np.frombuffer(reader.buffer, dtype=np.uint8))
    want = table["value"][:32].copy()
    ts._retire(part)
    del part, reader
    gc.collect()
    assert ts._live_parts("d") == ()
    assert ts.query_archive("d").num_rows == 0
    assert np.array_equal(held, want)


def test_owning_decodes_stay_aligned_copies(reader):
    # Compaction re-encodes what read_group returns, and numpy's
    # compares run several times slower on unaligned float64 (DESIGN
    # §11) — so the owning decode never hands out a view of the
    # (unaligned) payload.
    buf = np.frombuffer(reader.buffer, dtype=np.uint8)
    for g in range(reader.num_row_groups):
        for n in reader.column_names():
            a = reader.decode_group_column(g, n)
            assert a.flags.aligned and a.flags.owndata, (g, n)
            assert a.flags.writeable, (g, n)
            assert not np.shares_memory(a, buf), (g, n)
    no_bool = RcfReader(
        write_table(
            mixed_table().select(PROJECTED), row_group_size=ROWS_PER_GROUP
        )
    )
    buf = np.frombuffer(no_bool.buffer, dtype=np.uint8)
    tables = [no_bool.read_group(g) for g in range(no_bool.num_row_groups)]
    for table in tables + [no_bool.read()]:
        for n in PROJECTED:
            a = table[n]
            assert a.flags.aligned and not np.shares_memory(a, buf), n
    assert all(tables[0][n].flags.owndata for n in PROJECTED)
