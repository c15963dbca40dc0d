"""Fast-path memos in the columnar layer must never change bytes.

Three caches sit on the RCF write path — the ``choose_encoding`` memo,
the compression memo, and the writer's whole-chunk memo.  Each must be
an invisible accelerator: same encoding choices, same compressed bytes,
same file bytes, cold, warm and under ``baseline_mode()`` (which
bypasses all three), and identical to the pre-optimization reference
estimator.
"""

import numpy as np
import pytest

from repro.columnar import ColumnTable, read_table, write_table
from repro.columnar.compression import (
    CODECS,
    clear_compress_memo,
    compress,
    compress_memo_stats,
    decompress,
)
from repro.columnar.encodings import (
    choose_encoding,
    choose_encoding_reference,
    clear_encoding_memo,
    encoding_memo_stats,
)
from repro.columnar.file_format import chunk_memo_stats, clear_chunk_memo
from repro.perf import baseline_mode


def varied_arrays():
    rng = np.random.default_rng(17)
    yield np.empty(0, dtype=np.float64)
    yield np.array([3.5])
    yield np.zeros(500)
    yield np.full(256, 7, dtype=np.int64)
    yield np.arange(1000, dtype=np.int64)
    yield np.arange(0.0, 100.0, 0.25)
    yield rng.normal(size=1000)
    yield rng.integers(0, 4, size=2000).astype(np.int32)
    yield np.repeat(rng.normal(size=10), 100)
    yield np.repeat([np.nan, 1.0, np.nan], [50, 5, 45])
    yield np.r_[np.zeros(400), rng.normal(size=100)]
    yield rng.integers(0, 2, size=64).astype(np.int8)
    yield (rng.normal(size=300) * 1e12).astype(np.int64)
    yield np.linspace(0, 1, 777)
    yield np.array(["a", "b", "a", None, ""], dtype=object)
    yield np.array([], dtype=object)
    ts = 1700000000.0 + np.arange(3600) * 15.0  # regular timestamp grid
    yield ts
    yield ts.astype(np.int64)


@pytest.mark.parametrize("arr", list(varied_arrays()), ids=range(18))
def test_fast_estimator_matches_reference(arr):
    clear_encoding_memo()  # a miss: the fast estimator decides
    assert choose_encoding(arr) == choose_encoding_reference(arr)


def test_memoized_choice_equals_uncached():
    clear_encoding_memo()
    for arr in varied_arrays():
        cold = choose_encoding(arr)
        hot = choose_encoding(arr.copy())
        with baseline_mode():
            bare = choose_encoding(arr)
        assert cold == hot == bare
    stats = encoding_memo_stats()
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_reference_mode_bypasses_memo():
    clear_encoding_memo()
    arr = np.repeat(np.arange(10.0), 37)
    with baseline_mode():
        choice = choose_encoding(arr)
        assert encoding_memo_stats() == {
            "entries": 0, "max_entries": 1024, "hits": 0, "misses": 0
        }  # fmt: skip
    assert choice == choose_encoding(arr)


def sample_buffers():
    rng = np.random.default_rng(23)
    yield b""
    yield b"x" * 10_000  # highly compressible
    yield rng.bytes(10_000)  # incompressible
    yield np.arange(4096, dtype=np.int64).tobytes()


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_compress_memo_is_invisible(codec):
    clear_compress_memo()
    for buf in sample_buffers():
        cold = compress(buf, codec)
        hot = compress(buf, codec)
        before = compress_memo_stats()
        with baseline_mode():
            bare = compress(buf, codec)
        assert compress_memo_stats() == before
        assert cold == hot == bare
        assert decompress(cold, codec) == bytes(buf)
    if codec != "none":  # the identity codec never touches the memo
        assert compress_memo_stats()["hits"] > 0


def sample_table(seed=0):
    rng = np.random.default_rng(seed)
    n = 4096
    return ColumnTable(
        {
            "time": 1700000000.0 + np.arange(n) * 15.0,
            "component_id": np.repeat(
                np.arange(n // 16, dtype=np.int32), 16
            ),
            "sensor_id": np.tile(np.arange(16, dtype=np.int16), n // 16),
            "value": rng.normal(size=n),
            "label": np.array(
                [f"s{i % 7}" for i in range(n)], dtype=object
            ),
        }
    )


@pytest.mark.parametrize("codec", sorted(CODECS))
def test_chunk_memo_write_bytes_identical(codec):
    table = sample_table()
    clear_chunk_memo()
    with baseline_mode():
        bare = write_table(table, codec=codec)
    assert chunk_memo_stats()["entries"] == 0
    cold = write_table(table, codec=codec)
    hot = write_table(table, codec=codec)
    assert bare == cold == hot
    assert chunk_memo_stats()["hits"] > 0

    out = read_table(hot)
    for name in table.column_names:
        a, b = table[name], out[name]
        if a.dtype == object:
            assert list(a) == list(b)
        else:
            assert a.tobytes() == b.tobytes()


def test_chunk_memo_respects_reference_mode():
    """Baseline mode must not serve chunks cached by the fast path."""
    table = sample_table(seed=1)
    clear_chunk_memo()
    fast = write_table(table)
    before = chunk_memo_stats()
    with baseline_mode():
        ref = write_table(table)
    assert chunk_memo_stats() == before  # no probe, hit or store
    assert ref == fast  # same bytes regardless — the estimators agree


def test_chunk_memo_keys_on_codec():
    table = sample_table(seed=2)
    clear_chunk_memo()
    a = write_table(table, codec="fast")
    b = write_table(table, codec="high")
    assert a != b
    assert read_table(a)["value"].tobytes() == read_table(b)["value"].tobytes()
