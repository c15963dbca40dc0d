"""Generation-keyed LRU result cache."""

import pytest

from repro.serve import ResultCache


class TestResultCache:
    def test_get_put_roundtrip(self):
        cache = ResultCache()
        assert cache.get("fp", 1) is None
        cache.put("fp", 1, {"x": 1}, "digest-a")
        assert cache.get("fp", 1) == ({"x": 1}, "digest-a")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_generation_is_part_of_the_key(self):
        cache = ResultCache()
        cache.put("fp", 1, "old", "d1")
        assert cache.get("fp", 2) is None  # newer generation: miss
        cache.put("fp", 2, "new", "d2")
        assert cache.get("fp", 1) == ("old", "d1")
        assert cache.get("fp", 2) == ("new", "d2")

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1, "da")
        cache.put("b", 0, 2, "db")
        cache.get("a", 0)  # touch a; b is now least-recent
        cache.put("c", 0, 3, "dc")
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None
        assert cache.evicted == 1

    def test_prune_stale_drops_only_other_generations(self):
        cache = ResultCache()
        cache.put("a", 1, 1, "d")
        cache.put("b", 1, 2, "d")
        cache.put("c", 2, 3, "d")
        assert cache.prune_stale(2) == 2
        assert len(cache) == 1
        assert cache.get("c", 2) is not None
        assert cache.invalidated == 2
        assert cache.prune_stale(2) == 0  # idempotent

    def test_put_is_idempotent_per_key(self):
        cache = ResultCache(capacity=4)
        for _ in range(10):
            cache.put("fp", 1, "v", "d")
        assert len(cache) == 1
        assert cache.evicted == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)
