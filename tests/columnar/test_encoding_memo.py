"""The write path's fast pieces must never change bytes.

One cache sits on the RCF write path — the writer's whole-chunk memo —
and under it the fast encoding estimator.  The memo must be an
invisible accelerator (same encoding choices, same file bytes, cold,
warm and under ``baseline_mode()``, which bypasses it), and the
estimator must choose what the pre-optimization reference estimator
chooses.
"""

import numpy as np
import pytest

from repro.columnar import ColumnTable, RcfReader, encodings, read_table, write_table
from repro.columnar.compression import CODECS
from repro.columnar.encodings import choose_encoding, choose_encoding_reference
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
    assert choose_encoding(arr) == choose_encoding_reference(arr)


def test_memoized_choice_equals_uncached():
    """A chunk-memo hit writes the encoding the reference would choose."""
    clear_chunk_memo()
    for arr in varied_arrays():
        if arr.dtype == object or arr.size == 0:
            continue  # never memoized: strings and empty columns
        table = ColumnTable({"v": arr})
        cold = write_table(table)
        hot = write_table(ColumnTable({"v": arr.copy()}))
        assert hot == cold
        assert RcfReader(hot).group_encoding(0, "v") == choose_encoding_reference(arr)
    stats = chunk_memo_stats()
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_reference_mode_bypasses_memo(monkeypatch):
    """Under ``baseline_mode()`` every column, memoizable or not, is
    encoded as the reference estimator chooses, with no memo probe."""
    asked = []
    monkeypatch.setattr(
        encodings,
        "choose_encoding_reference",
        lambda arr: asked.append(arr.size) or choose_encoding_reference(arr),
    )
    table = sample_table(seed=3)
    clear_chunk_memo()
    write_table(table)  # warm: every numeric column is now a hit
    before = chunk_memo_stats()
    with baseline_mode():
        write_table(table)
    assert chunk_memo_stats() == before
    assert asked == [table.num_rows] * len(table.column_names)


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
