"""The planned OCEAN read path: manifest pruning, counters, invalidation.

Satellite focus: ``query_archive`` must not fetch blobs whose persisted
manifest stats exclude the query — proven with ``ObjectStore.gets``
deltas, not just counters — and the decoded-row-group cache must drop a
part's entries when compaction or retention removes it.
"""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable
from repro.obs import METRICS
from repro.perf.baseline import baseline_mode
from repro.query import clear_row_group_cache, row_group_cache_stats
from repro.storage import DataClass, TierPolicy, TieredStore
from repro.storage.manifest import COLUMNS_META_KEY, STATS_META_KEY
from repro.storage.tiers import DAY_S


def batch(t_start, n=20):
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": (np.arange(n) % 4).astype(float),
            "value": np.linspace(0, 1, n),
        }
    )


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_row_group_cache()
    yield
    clear_row_group_cache()


@pytest.fixture
def store():
    ts = TieredStore()
    ts.register("power.silver", DataClass.SILVER)
    for i in range(4):
        ts.ingest("power.silver", batch(i * 100.0), now=0.0)
    return ts


class TestManifestPersistence:
    def test_parts_carry_stats_and_columns(self, store):
        for m in store.ocean.list(store.OCEAN_BUCKET):
            assert STATS_META_KEY in m.user_meta
            assert COLUMNS_META_KEY in m.user_meta


class TestManifestPruning:
    def test_excluded_parts_never_fetched(self, store):
        gets0 = store.ocean.gets
        pruned0 = METRICS.counter("ocean.parts_pruned")
        out = store.query_archive("power.silver", 100.0, 120.0)
        assert out.num_rows == 20
        # Three of four parts lie outside the window: one fetch only.
        assert store.ocean.gets - gets0 == 1
        assert METRICS.counter("ocean.parts_pruned") - pruned0 == 3

    def test_predicate_pruning_without_window(self, store):
        gets0 = store.ocean.gets
        out = store.query_archive(
            "power.silver", predicate=Col("timestamp") >= 310.0
        )
        assert out.num_rows == 10
        assert store.ocean.gets - gets0 == 1

    def test_fully_pruned_result_keeps_schema(self, store):
        gets0 = store.ocean.gets
        out = store.query_archive("power.silver", 5000.0, 6000.0)
        assert out.num_rows == 0
        assert list(out.column_names) == ["timestamp", "node", "value"]
        assert store.ocean.gets == gets0  # zero fetches

    def test_projection_pushed_through(self, store):
        out = store.query_archive(
            "power.silver", 0.0, 50.0, columns=["timestamp", "value"]
        )
        assert list(out.column_names) == ["timestamp", "value"]

    def test_baseline_fetches_everything_and_agrees(self, store):
        fast = store.query_archive("power.silver", 100.0, 120.0)
        gets0 = store.ocean.gets
        with baseline_mode():
            ref = store.query_archive("power.silver", 100.0, 120.0)
        assert store.ocean.gets - gets0 == 4  # no pruning in baseline
        assert fast == ref

    def test_unlisted_dataset_empty(self, store):
        assert store.query_archive("nope").num_rows == 0

    def test_dataset_without_parts_keeps_the_requested_schema(self, store):
        # No live part answers like an all-pruned plan: the requested
        # columns, no rows — on the fast path and under the oracle.
        store.register("empty", DataClass.SILVER)
        pruned = store.query_archive(
            "power.silver", 5000.0, 6000.0, columns=["timestamp", "node"]
        )
        for mode in (None, baseline_mode):
            if mode is None:
                out = store.query_archive("empty", columns=["timestamp", "node"])
            else:
                with mode():
                    out = store.query_archive("empty", columns=["timestamp", "node"])
            assert out.num_rows == 0
            assert out.column_names == ["timestamp", "node"]
            assert out == pruned
        assert store.query_archive("empty").column_names == []


class TestCacheInvalidation:
    def _warm(self, store):
        store.query_archive("power.silver")
        return row_group_cache_stats()["entries"]

    def test_compaction_invalidates_old_parts(self, store):
        entries = self._warm(store)
        assert entries > 0
        store.compact("power.silver", min_objects=2)
        assert row_group_cache_stats()["entries"] == 0
        # Post-compaction reads are correct (and re-cache).
        out = store.query_archive("power.silver", 100.0, 120.0)
        assert out.num_rows == 20

    def test_retention_invalidates_deleted_parts(self, store):
        policies = dict(store.policies)
        policies[DataClass.SILVER] = TierPolicy(
            lake_retention_s=1.0, ocean_retention_s=2.0, glacier=False
        )
        store.policies = policies
        assert self._warm(store) > 0
        store.enforce(now=10 * DAY_S)
        assert row_group_cache_stats()["entries"] == 0


class TestRowGroupSizePolicy:
    def test_multi_group_parts_prune_groups(self):
        ts = TieredStore(
            policies={
                DataClass.SILVER: TierPolicy(
                    lake_retention_s=DAY_S,
                    ocean_retention_s=DAY_S,
                    glacier=False,
                    row_group_size=8,
                )
            }
        )
        ts.register("d", DataClass.SILVER)
        ts.ingest("d", batch(0.0, n=64), now=0.0)
        pruned0 = METRICS.counter("query.groups_pruned")
        out = ts.query_archive("d", 0.0, 8.0)
        assert out.num_rows == 8
        # 64 rows / 8 per group = 8 groups; only the first survives.
        assert METRICS.counter("query.groups_pruned") - pruned0 == 7

    def test_bad_row_group_size_rejected(self):
        with pytest.raises(ValueError):
            TierPolicy(
                lake_retention_s=None,
                ocean_retention_s=DAY_S,
                glacier=False,
                row_group_size=0,
            )
