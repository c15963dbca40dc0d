"""The row-group cache's admission policy can never change an answer.

Random ``query_archive`` sequences over a small managed store, with the
byte budget set to a few chunks so admission, rejection and eviction all
fire, are held byte-for-byte (values, dtypes, row and column order) to
the same queries under ``baseline_mode()``, whose decode-everything
oracle never reaches the cache; a compaction is interleaved and the
deleted parts' entries *and* ask counts must be gone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Col, ColumnTable
from repro.columnar.file_format import write_table
from repro.perf import PERF
from repro.perf.baseline import baseline_mode
from repro.query import cache as qcache
from repro.storage import DataClass, TierPolicy, TieredStore
from tests.storage.compaction_oracle import open_handles

N_PARTS = 6
ROWS = 24  # per part: three row groups of eight
CHUNK = 8 * 8  # bytes of one decoded float chunk
COLUMNS = ("timestamp", "node", "value")


@pytest.fixture(autouse=True)
def small_budget():
    qcache.clear_row_group_cache()
    qcache.set_row_group_cache_limit(5 * CHUNK)
    yield
    qcache.clear_row_group_cache()
    qcache.set_row_group_cache_limit(64 << 20)


def build_store():
    policy = TierPolicy(
        lake_retention_s=None,
        ocean_retention_s=float("inf"),
        glacier=False,
        row_group_size=8,
    )
    ts = TieredStore(policies={DataClass.SILVER: policy})
    ts.register("d", DataClass.SILVER)
    for i in range(N_PARTS):
        rng = np.random.default_rng(i)
        ts.ingest(
            "d",
            ColumnTable(
                {
                    "timestamp": i * 100.0 + np.arange(ROWS, dtype=float),
                    "node": (np.arange(ROWS) % 4).astype(float),
                    "value": rng.normal(100.0, 10.0, ROWS),
                }
            ),
            now=float(i),
        )
    return ts


PREDICATES = st.sampled_from(
    [
        None,
        Col("node") == 1.0,
        Col("node").isin([0.0, 3.0]),
        Col("value") > 100.0,
        (Col("value") > 95.0) & ~(Col("node") == 2.0),
    ]
)
QUERIES = st.tuples(
    st.sampled_from([None, 0.0, 100.0, 208.0, 300.0]),
    st.sampled_from([None, 116.0, 300.0, 420.0, 600.0]),
    PREDICATES,
    st.sampled_from([None, ["value"], ["node", "timestamp"], list(COLUMNS)]),
)
#: Fires every branch of the rule whatever follows: a full scan larger
#: than the budget (rejections), then one narrow window asked until it
#: outranks the scan's residents (evictions).
PRELUDE = [(None, None, None, None)] + [(500.0, 508.0, None, None)] * 3


def answer(ts, query):
    table = ts.query_archive("d", *query)
    return table.column_names, write_table(table)


@given(
    queries=st.lists(QUERIES, min_size=4, max_size=20),
    compact_at=st.integers(0, 19),
)
@settings(max_examples=40, deadline=None)
def test_answers_do_not_depend_on_what_the_cache_kept(queries, compact_at):
    qcache.clear_row_group_cache()
    ts = build_store()
    rejected0 = PERF.counter("query.cache_rejected")
    evicted0 = PERF.counter("query.cache_evictions")
    for i, query in enumerate(PRELUDE + queries):
        if i == len(PRELUDE) + compact_at % len(queries):
            doomed = {h.digest() for h in open_handles(ts).values()}
            assert doomed & set(qcache._asked)
            assert ts.compact("d", min_objects=2)["merged"] == N_PARTS
            assert not doomed & set(qcache._token_keys)
            assert not doomed & set(qcache._asked)
        cached = answer(ts, query)
        stats = qcache.row_group_cache_stats()
        assert stats["bytes"] <= stats["max_bytes"]
        with baseline_mode():
            assert answer(ts, query) == cached
    assert PERF.counter("query.cache_rejected") > rejected0
    assert PERF.counter("query.cache_evictions") > evicted0
