"""The decoded-row-group cache: bounds, counters, invalidation."""

import numpy as np
import pytest

from repro.perf import PERF
from repro.query import cache as qcache


@pytest.fixture(autouse=True)
def fresh_cache():
    qcache.clear_row_group_cache()
    yield
    qcache.clear_row_group_cache()
    qcache.set_row_group_cache_limit(64 << 20)


def counter(name):
    return PERF.counter(name)


class TestHitMiss:
    def test_miss_then_hit(self):
        calls = []

        def loader():
            calls.append(1)
            return np.arange(8.0)

        misses0 = counter("query.cache_misses")
        hits0 = counter("query.cache_hits")
        a = qcache.cached_column("tok", 0, "x", loader)
        b = qcache.cached_column("tok", 0, "x", loader)
        assert len(calls) == 1
        assert a is b
        assert counter("query.cache_misses") - misses0 == 1
        assert counter("query.cache_hits") - hits0 == 1

    def test_distinct_keys_decode_separately(self):
        calls = []
        loader = lambda: (calls.append(1), np.arange(4.0))[1]
        qcache.cached_column("tok", 0, "x", loader)
        qcache.cached_column("tok", 1, "x", loader)
        qcache.cached_column("tok2", 0, "x", loader)
        assert len(calls) == 3

    def test_cached_arrays_are_read_only(self):
        arr = qcache.cached_column("tok", 0, "x", lambda: np.arange(4.0))
        with pytest.raises(ValueError):
            arr[0] = 99.0


class TestBounds:
    def test_lru_eviction_under_byte_budget(self):
        qcache.set_row_group_cache_limit(3 * 8 * 10)  # three 10-float arrays
        ev0 = counter("query.cache_evictions")
        for g in range(5):
            qcache.cached_column("tok", g, "x", lambda: np.arange(10.0))
        stats = qcache.row_group_cache_stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["entries"] <= 3
        assert counter("query.cache_evictions") - ev0 >= 2
        # Oldest group evicted, newest retained.
        calls = []
        qcache.cached_column(
            "tok", 4, "x", lambda: (calls.append(1), np.arange(10.0))[1]
        )
        assert not calls

    def test_shrinking_limit_evicts(self):
        for g in range(4):
            qcache.cached_column("tok", g, "x", lambda: np.arange(10.0))
        qcache.set_row_group_cache_limit(8 * 10)
        assert qcache.row_group_cache_stats()["entries"] <= 1

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            qcache.set_row_group_cache_limit(0)


class TestInvalidation:
    def test_invalidate_token_drops_only_that_part(self):
        qcache.cached_column("a", 0, "x", lambda: np.arange(4.0))
        qcache.cached_column("a", 1, "x", lambda: np.arange(4.0))
        qcache.cached_column("b", 0, "x", lambda: np.arange(4.0))
        assert qcache.invalidate_token("a") == 2
        stats = qcache.row_group_cache_stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 4 * 8

    def test_invalidate_unknown_token_noop(self):
        assert qcache.invalidate_token("nope") == 0
        qcache.cached_column("a", 0, "x", lambda: np.arange(4.0))
        before = qcache.row_group_cache_stats()
        assert qcache.invalidate_token("nope") == 0
        assert qcache.row_group_cache_stats() == before

    def test_eviction_keeps_token_index_consistent(self):
        # invalidate_token answers from a token -> keys index; LRU
        # eviction and resizing must keep it an exact mirror of the
        # cache or a later invalidate double-frees or leaks.
        def assert_index_mirrors_cache():
            indexed = set().union(*qcache._token_keys.values())
            assert indexed == set(qcache._cache)
            assert all(qcache._token_keys.values())  # no empty buckets
            assert qcache.row_group_cache_stats()["bytes"] == sum(
                a.nbytes for a in qcache._cache.values()
            )

        qcache.set_row_group_cache_limit(4 * 8 * 10)  # four 10-float arrays
        for g in range(3):
            qcache.cached_column("old", g, "x", lambda: np.arange(10.0))
        for g in range(3):
            qcache.cached_column("new", g, "x", lambda: np.arange(10.0))
        assert_index_mirrors_cache()  # "old" groups 0 and 1 were evicted
        assert qcache.invalidate_token("old") == 1
        assert_index_mirrors_cache()
        qcache.set_row_group_cache_limit(8 * 10)  # evicts "new" down to one
        assert_index_mirrors_cache()
        assert set(qcache._token_keys) == {"new"}
        assert qcache.invalidate_token("new") == 1
        assert qcache.row_group_cache_stats()["entries"] == 0
        assert qcache.row_group_cache_stats()["bytes"] == 0
        assert not qcache._token_keys
        # A token evicted to nothing is gone from the index, and caching
        # under it again starts a fresh bucket.
        assert qcache.invalidate_token("old") == 0
        qcache.cached_column("old", 0, "x", lambda: np.arange(10.0))
        assert qcache.invalidate_token("old") == 1


class TestDisabled:
    def test_disabled_bypasses_and_decodes_every_time(self):
        calls = []
        loader = lambda: (calls.append(1), np.arange(4.0))[1]
        with qcache.row_group_cache_disabled():
            qcache.cached_column("tok", 0, "x", loader)
            qcache.cached_column("tok", 0, "x", loader)
        assert len(calls) == 2
        assert qcache.row_group_cache_stats()["entries"] == 0
