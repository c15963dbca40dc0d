"""The decoded-row-group cache: bounds, counters, invalidation, and the
frequency-gated admission rule, pinned on fixed traces without a clock."""

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
    assert stats["tracked"] == sum(len(c) for c in qcache._asked.values())


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
        qcache.set_row_group_cache_limit(3 * 8 * 10)  # three 10-float arrays
        ev0 = counter("query.cache_evictions")
        for g in range(3):
            cached_column("tok", g, "x", lambda: np.arange(10.0))
        for g in (3, 4):
            # Asked for more often than the once-seen LRU victim: a
            # once-seen newcomer would tie with it and be rejected.
            for _ in range(3):
                cached_column("tok", g, "x", lambda: np.arange(10.0))
        stats = qcache.row_group_cache_stats()
        assert stats["bytes"] <= stats["max_bytes"]
        assert stats["entries"] <= 3
        assert counter("query.cache_evictions") - ev0 >= 2
        # Oldest group evicted, newest retained.
        calls = []
        cached_column(
            "tok", 4, "x", lambda: (calls.append(1), np.arange(10.0))[1]
        )
        assert not calls

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
            # The third ask outranks the once-seen "old" victim (a tie
            # would keep the resident).
            for _ in range(3):
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
    """Trace replays with exact counts: the rule reads no clock and no
    RNG, so every number below is a pin, not a threshold."""

    C = 100  # budget, in chunks

    @pytest.fixture(autouse=True)
    def budget(self):
        qcache.set_row_group_cache_limit(self.C * ROW)

    def round_hits(self, token, keys):
        return sum(ask(token, g) for g in range(keys))

    def test_loop_larger_than_the_budget_keeps_a_resident_set(self):
        # Plain LRU gets 0 hits on a cyclic scan longer than the cache:
        # every entry is evicted just before it is asked for again.
        for loop in (130, 300):
            qcache.clear_row_group_cache()
            hits = []
            moved = deltas(
                lambda: hits.extend(self.round_hits("loop", loop) for _ in range(30))
            )
            assert hits == [0] + [self.C] * 29  # budget/loop, the ideal
            assert moved == {
                "hits": 29 * self.C,
                "misses": 30 * loop - 29 * self.C,
                "evictions": 0,  # aging halves a loop's ties into ties
                "rejected": 30 * (loop - self.C),
            }
            assert qcache.row_group_cache_stats()["tracked"] == loop

    def test_one_pass_scan_cannot_flush_a_hot_set(self):
        for _ in range(3):
            self.round_hits("hot", self.C)
        moved = deltas(lambda: self.round_hits("scan", 10 * self.C))
        assert moved == {
            "hits": 0, "misses": 10 * self.C, "evictions": 0,
            "rejected": 10 * self.C,
        }
        assert self.round_hits("hot", self.C) == self.C

    def test_hotter_key_displaces_the_lru_victim_and_a_tie_does_not(self):
        qcache.set_row_group_cache_limit(2 * ROW)
        ask("a", 0)
        ask("b", 0)  # full; the LRU victim "a" has been asked for once
        assert deltas(lambda: ask("x", 0))["rejected"] == 1  # 0 asks before
        assert deltas(lambda: ask("x", 0))["rejected"] == 1  # 1: a tie
        assert ask("a", 0) and ask("b", 0)  # both still resident; "a" now at 2
        assert deltas(lambda: ask("x", 0))["rejected"] == 1  # 2: a tie again
        moved = deltas(lambda: ask("x", 0))  # 3 > 2
        assert (moved["evictions"], moved["rejected"]) == (1, 0)
        assert ask("x", 0) and ask("b", 0)
        assert not ask("a", 0)  # the LRU one went, not the other

    def test_shifted_working_set_takes_over_and_stale_counts_age_out(self):
        for _ in range(30):
            self.round_hits("old", 130)
        resident_after = []
        for _ in range(12):
            self.round_hits("new", self.C)
            resident_after.append(len(qcache._token_keys.get("new", ())))
        # Saturated stale counts (15) halve to 7; the 9th ask outranks them.
        assert resident_after == [0] * 8 + [self.C] * 4
        assert "old" not in qcache._token_keys
        assert_bookkeeping_consistent()
        for _ in range(25):
            assert self.round_hits("new", self.C) == self.C
        # The old keys' history has halved away: only live keys are tracked.
        assert qcache.row_group_cache_stats()["tracked"] == self.C
        assert set(qcache._asked) == {"new"}

    def test_counts_are_dropped_with_their_token(self):
        qcache.set_row_group_cache_limit(3 * ROW)
        for g in range(3):
            ask("a", g)
        for g in range(2):
            ask("b", g)  # rejected: tracked, never resident
        assert qcache.row_group_cache_stats()["tracked"] == 5
        assert qcache.invalidate_token("b") == 0
        assert qcache.row_group_cache_stats()["tracked"] == 3
        assert qcache.invalidate_token("a") == 3
        assert qcache.row_group_cache_stats()["tracked"] == 0
        assert not ask("b", 0)  # admitted with a clean history
        qcache.clear_row_group_cache()
        stats = qcache.row_group_cache_stats()
        assert (stats["entries"], stats["bytes"], stats["tracked"]) == (0, 0, 0)

    def test_shrinking_the_budget_evicts_lru_first_and_keeps_counts(self):
        for g in range(6):
            ask("t", g)
        ask("t", 0)  # most recently used
        moved = deltas(lambda: qcache.set_row_group_cache_limit(2 * ROW))
        assert moved["evictions"] == 4
        assert list(qcache._cache) == [("t", 5, "x"), ("t", 0, "x")]
        assert_bookkeeping_consistent()
        assert qcache.row_group_cache_stats()["tracked"] == 6

    def test_identical_traces_give_identical_counters(self):
        rng = np.random.default_rng(20)
        # Skewed repeats over 4x the budget, with a token deleted midway.
        trace = (rng.zipf(1.3, size=6000) % (4 * self.C)).tolist()

        def replay():
            qcache.clear_row_group_cache()
            for i, k in enumerate(trace):
                ask(f"t{k % 7}", k)
                if i == 3000:
                    qcache.invalidate_token("t3")
            assert_bookkeeping_consistent()

        first = deltas(replay), qcache.row_group_cache_stats()
        assert first == (deltas(replay), qcache.row_group_cache_stats())
        assert min(first[0].values()) > 0  # every path of the rule ran
