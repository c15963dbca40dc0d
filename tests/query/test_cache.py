"""The decoded-row-group cache: bounds, counters, invalidation, and its
plain LRU order, pinned on fixed traces without a clock."""

import sys

import numpy as np
import pytest

from repro.obs import METRICS
from repro.query import cache as qcache


@pytest.fixture(autouse=True)
def fresh_cache():
    qcache.clear_row_group_cache()
    yield
    qcache.clear_row_group_cache()
    qcache.set_row_group_cache_limit(64 << 20)


def counter(name):
    return METRICS.counter(name)


def cached_column(token, group, name, loader):
    """:func:`load_column`'s array, a hit counted as a scan counts it."""
    arr, hit = qcache.load_column(token, group, name, loader)
    if hit:
        METRICS.inc("query.cache_hits")
    return arr


ROW = 8 * 10  # bytes of one ten-float array: budgets below are in rows


def ask(token, group, n=10):
    """Ask for one ten-float chunk; True on a hit.  The byte budget is
    an invariant: checked after every call."""
    calls = []
    cached_column(
        token, group, "x", lambda: (calls.append(1), np.arange(float(n)))[1]
    )
    stats = qcache.row_group_cache_stats()
    assert stats["bytes"] <= stats["max_bytes"]
    return not calls


def deltas(fn):
    """Run ``fn``; return the four policy counters' deltas."""
    names = ("hits", "misses", "evictions", "rejected")
    before = [counter(f"query.cache_{n}") for n in names]
    fn()
    return {n: counter(f"query.cache_{n}") - b for n, b in zip(names, before)}


def assert_bookkeeping_consistent():
    """The token index and the weights mirror the cache exactly."""
    indexed = set().union(*qcache._token_keys.values())
    assert indexed == set(qcache._cache) == set(qcache._weights)
    assert all(qcache._token_keys.values())  # no empty buckets
    stats = qcache.row_group_cache_stats()
    assert stats["bytes"] == sum(qcache._weights.values()) <= stats["max_bytes"]


class TestHitMiss:
    def test_miss_then_hit(self):
        calls = []

        def loader():
            calls.append(1)
            return np.arange(8.0)

        misses0 = counter("query.cache_misses")
        hits0 = counter("query.cache_hits")
        a = cached_column("tok", 0, "x", loader)
        b = cached_column("tok", 0, "x", loader)
        assert len(calls) == 1
        assert a is b
        assert counter("query.cache_misses") - misses0 == 1
        assert counter("query.cache_hits") - hits0 == 1

    def test_distinct_keys_decode_separately(self):
        calls = []
        loader = lambda: (calls.append(1), np.arange(4.0))[1]
        cached_column("tok", 0, "x", loader)
        cached_column("tok", 1, "x", loader)
        cached_column("tok2", 0, "x", loader)
        assert len(calls) == 3

    def test_cached_arrays_are_read_only(self):
        arr = cached_column("tok", 0, "x", lambda: np.arange(4.0))
        with pytest.raises(ValueError):
            arr[0] = 99.0


class TestBounds:
    def test_lru_eviction_under_byte_budget(self):
        qcache.set_row_group_cache_limit(3 * ROW)  # three 10-float arrays
        moved = deltas(lambda: [ask("tok", g) for g in range(5)])
        assert moved == {"hits": 0, "misses": 5, "evictions": 2, "rejected": 0}
        stats = qcache.row_group_cache_stats()
        assert (stats["entries"], stats["bytes"]) == (3, 3 * ROW)
        # The two oldest groups went, the newest stayed.
        assert list(qcache._cache) == [("tok", g, "x") for g in (2, 3, 4)]
        assert ask("tok", 4)
        assert not ask("tok", 0)

    def test_a_loop_longer_than_the_budget_never_hits(self):
        # The cost plain LRU accepts: a cyclic scan of 130 keys over a
        # 100-key budget evicts every entry just before it is asked for
        # again, so every round misses all 130 and every miss past the
        # first 100 evicts one.
        qcache.set_row_group_cache_limit(100 * ROW)
        rounds = []
        moved = deltas(
            lambda: rounds.extend(
                sum(ask("loop", g) for g in range(130)) for _ in range(5)
            )
        )
        assert rounds == [0] * 5
        assert moved == {
            "hits": 0, "misses": 5 * 130, "evictions": 5 * 130 - 100,
            "rejected": 0,
        }  # fmt: skip
        assert qcache.row_group_cache_stats()["entries"] == 100
        assert_bookkeeping_consistent()

    def test_shrinking_limit_evicts(self):
        for g in range(4):
            cached_column("tok", g, "x", lambda: np.arange(10.0))
        qcache.set_row_group_cache_limit(8 * 10)
        assert qcache.row_group_cache_stats()["entries"] <= 1

    def test_bad_limit_rejected(self):
        with pytest.raises(ValueError):
            qcache.set_row_group_cache_limit(0)

    def test_array_larger_than_the_budget_is_never_admitted(self):
        # Regression: evict-to-fit stopped at one entry, so an array
        # bigger than the whole budget flushed the cache and then stayed.
        qcache.set_row_group_cache_limit(1000)
        assert not ask("small", 0)
        moved = deltas(lambda: [ask("big", 0, n=1000) for _ in range(20)])
        assert moved == {"hits": 0, "misses": 20, "evictions": 0, "rejected": 20}
        stats = qcache.row_group_cache_stats()
        assert (stats["entries"], stats["bytes"]) == (1, ROW)
        assert ask("small", 0)

    def test_string_columns_weigh_their_distinct_objects(self):
        # Regression: object arrays were charged nbytes, 8 B a row.
        unique = np.array([f"node-{i:04d}-message" for i in range(50)], dtype=object)
        cached_column("u", 0, "msg", lambda: unique)
        want = unique.nbytes + sum(sys.getsizeof(x) for x in unique.tolist())
        assert qcache.row_group_cache_stats()["bytes"] == want
        # A dictionary-decoded chunk shares one str per vocabulary
        # entry (and one None): each is counted once.
        vocab = np.array(["ok", "warn", "critical-thermal", None], dtype=object)
        shared = vocab[np.arange(5000) % 4]
        cached_column("d", 0, "sev", lambda: shared)
        want += shared.nbytes + sum(sys.getsizeof(x) for x in vocab.tolist())
        assert qcache.row_group_cache_stats()["bytes"] == want
        assert_bookkeeping_consistent()
        # The real weight is what the budget sees: pointers alone would
        # fit here, pointers + strings do not.
        qcache.clear_row_group_cache()
        qcache.set_row_group_cache_limit(unique.nbytes + 100)
        rejected = deltas(lambda: cached_column("u", 0, "msg", lambda: unique))
        assert rejected["rejected"] == 1
        assert qcache.row_group_cache_stats()["entries"] == 0


class TestInvalidation:
    def test_invalidate_token_drops_only_that_part(self):
        cached_column("a", 0, "x", lambda: np.arange(4.0))
        cached_column("a", 1, "x", lambda: np.arange(4.0))
        cached_column("b", 0, "x", lambda: np.arange(4.0))
        assert qcache.invalidate_token("a") == 2
        stats = qcache.row_group_cache_stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 4 * 8

    def test_invalidate_unknown_token_noop(self):
        assert qcache.invalidate_token("nope") == 0
        cached_column("a", 0, "x", lambda: np.arange(4.0))
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
            cached_column("old", g, "x", lambda: np.arange(10.0))
        for g in range(3):
            cached_column("new", g, "x", lambda: np.arange(10.0))
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
        cached_column("old", 0, "x", lambda: np.arange(10.0))
        assert qcache.invalidate_token("old") == 1


class TestAdmission:
    """What a resize admits and keeps, with exact counts: plain LRU
    reads no clock and no RNG, so every number below is a pin."""

    def test_shrinking_the_budget_evicts_lru_first_and_keeps_counts(self):
        for g in range(6):
            ask("t", g)
        ask("t", 0)  # most recently used
        moved = deltas(lambda: qcache.set_row_group_cache_limit(2 * ROW))
        # A resize evicts and counts nothing else: hits and misses so
        # far are kept as they were.
        assert moved == {"hits": 0, "misses": 0, "evictions": 4, "rejected": 0}
        assert list(qcache._cache) == [("t", 5, "x"), ("t", 0, "x")]
        assert_bookkeeping_consistent()
        assert ask("t", 5) and ask("t", 0)
        assert not ask("t", 4)
