"""The write path's fast piece must never change bytes.

The RCF write path keeps no memo; its one fast piece is the encoding
estimator, which must choose what the pre-optimization reference
estimator chooses, so that a file written under ``baseline_mode()`` is
byte-identical to the default one under every codec.
"""

import numpy as np
import pytest

from repro.columnar import ColumnTable, encodings, write_table
from repro.columnar.compression import CODECS
from repro.columnar.encodings import choose_encoding, choose_encoding_reference
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
    table = ColumnTable({"v": arr})
    for codec in sorted(CODECS):
        with baseline_mode():
            reference = write_table(table, codec=codec)
        assert write_table(table, codec=codec) == reference


def test_reference_mode_uses_reference_estimator(monkeypatch):
    """Under ``baseline_mode()`` every column is encoded as the
    reference estimator chooses, and the bytes are the default's; the
    default write never asks the reference."""
    asked = []
    monkeypatch.setattr(
        encodings,
        "choose_encoding_reference",
        lambda arr: asked.append(arr.size) or choose_encoding_reference(arr),
    )
    table = sample_table(seed=3)
    fast = write_table(table)
    assert asked == []
    with baseline_mode():
        assert write_table(table) == fast
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
