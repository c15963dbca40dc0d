"""Unit tests for OCEAN compaction."""

from math import ceil, log2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable
from repro.storage import DataClass, LifecycleManager, TieredStore, TierPolicy
from repro.storage.tiers import merge_suffix


def batch(t_start, n=50):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": rng.integers(0, 8, n),
            "value": rng.normal(100.0, 10.0, n),
        }
    )


@pytest.fixture
def store():
    ts = TieredStore()
    ts.register("power.silver", DataClass.SILVER)
    for i in range(6):
        ts.ingest("power.silver", batch(i * 100.0), now=float(i))
    return ts


class TestCompaction:
    def test_merges_parts_into_one(self, store):
        before = store.scan_ocean("power.silver")
        result = store.compact("power.silver")
        assert result["merged"] == 6
        parts = store.ocean.list(store.OCEAN_BUCKET, prefix="power.silver/")
        assert len(parts) == 1
        assert store.scan_ocean("power.silver") == before

    def test_compaction_shrinks_or_holds_bytes(self, store):
        result = store.compact("power.silver")
        assert result["bytes_after"] <= result["bytes_before"] * 1.1

    def test_min_objects_threshold(self, store):
        store.compact("power.silver")
        again = store.compact("power.silver", min_objects=4)
        assert again["merged"] == 0  # only one object left

    def test_compacted_object_keeps_newest_timestamp(self, store):
        store.compact("power.silver")
        meta = store.ocean.list(store.OCEAN_BUCKET, prefix="power.silver/")[0]
        assert meta.created_at == 5.0
        assert meta.user_meta["compacted_from"] == "6"

    def test_unregistered_dataset_rejected(self, store):
        with pytest.raises(KeyError):
            store.compact("nope")

    def test_retention_applies_to_compacted_object(self, store):
        from repro.storage.tiers import DAY_S

        store.compact("power.silver")
        report = store.enforce(now=6 * 365 * DAY_S)
        # Silver OCEAN retention is 5 years: the compacted object ages out.
        assert report["ocean_archived"] == 1

    def test_queries_after_compaction(self, store):
        from repro.columnar import Col

        store.compact("power.silver")
        out = store.scan_ocean("power.silver", predicate=Col("node") == 3)
        assert (out["node"] == 3).all()


def test_selective_answers_identical_after_compaction():
    """A sprawl of small parts merged into one answers every selective
    query (string equality, ``isin``, numeric threshold, each
    with a projection) exactly as before the merge."""
    from repro.columnar import Col
    from repro.columnar.predicate import IsIn

    projects = np.array(["PRJA", "PRJB", "PRJC", "PRJD"], dtype=object)
    ts = TieredStore(policies=tiered_policy())
    ts.register("d", DataClass.SILVER)
    for i in range(24):
        rng = np.random.default_rng(i)
        ts.ingest(
            "d",
            ColumnTable(
                {
                    "timestamp": i * 100.0 + np.arange(20, dtype=float),
                    "node": rng.integers(0, 8, 20).astype(float),
                    "value": rng.normal(100.0, 10.0, 20),
                    "project": projects[rng.integers(0, 4, 20)],
                }
            ),
            now=float(i),
        )
    queries = [
        dict(predicate=Col("project") == "PRJC", columns=["timestamp", "value"]),
        dict(predicate=IsIn("node", (3.0, 7.0)), columns=["node", "value"]),
        dict(predicate=Col("value") > 110.0, columns=["timestamp", "node"]),
    ]
    before = [ts.query_archive("d", **q) for q in queries]
    assert all(t.num_rows for t in before)
    assert ts.compact("d", min_objects=2)["merged"] == 24
    assert [ts.query_archive("d", **q) for q in queries] == before


def tiered_policy(**overrides):
    """OCEAN-only Silver policy whose row group (8 rows) is smaller than
    one ``batch``, so no part counts as *small* and the epoch rule alone
    decides what a compaction rewrites."""
    fields = dict(
        lake_retention_s=None,
        ocean_retention_s=5e8,
        glacier=True,
        row_group_size=8,
    )
    fields.update(overrides)
    return {DataClass.SILVER: TierPolicy(**fields)}


def live_shapes(ts, name="d"):
    """Live parts in ingest order as (key, epochs)."""
    return [
        (p.key, len(p.spans)) for p in ts._live_parts(name)
    ]


#: Part layouts for the selector: (ingest epochs, rows or None), oldest
#: first.  Rows straddle the ``small`` thresholds drawn beside them.
LAYOUTS = st.lists(
    st.tuples(st.integers(1, 64), st.one_of(st.none(), st.integers(1, 200))),
    max_size=12,
)


class TestMergeSuffixSelector:
    """``merge_suffix`` returns a *count* of newest parts, so whatever it
    selects is a suffix by construction; the properties below pin the
    rest of the rule."""

    @given(parts=LAYOUTS, small=st.integers(0, 250), m=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_never_a_lone_part_and_deterministic(self, parts, small, m):
        n = merge_suffix(parts, small, m)
        assert n == 0 or 2 <= n <= len(parts)
        assert n == merge_suffix(list(parts), small, m)
        if n:
            # Merged on the all-parts cadence: everything older than the
            # suffix counts as one part towards ``min_objects``.
            assert n + (1 if n < len(parts) else 0) >= m

    @given(parts=LAYOUTS, small=st.integers(0, 250), m=st.integers(2, 6))
    @settings(max_examples=200, deadline=None)
    def test_walk_stops_only_at_a_big_part_that_would_not_double(
        self, parts, small, m
    ):
        n = merge_suffix(parts, small, m)
        if 0 < n < len(parts):
            epochs, rows = parts[-n - 1]
            assert rows is None or rows >= small  # small parts always join
            assert epochs > sum(e for e, _ in parts[-n:])

    @given(
        parts=st.lists(
            st.tuples(st.integers(1, 64), st.integers(1, 99)), max_size=12
        ),
        m=st.integers(2, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_small_parts_select_the_full_merge(self, parts, m):
        want = len(parts) if len(parts) >= m else 0
        assert merge_suffix(parts, 100, m) == want

    def test_unknown_size_is_never_small(self):
        assert merge_suffix([(5, 10), (1, 10)], 100, 2) == 2
        assert merge_suffix([(5, None), (1, 10)], 100, 2) == 0

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("n_parts", [1, 2, 7, 64, 100, 257])
    def test_equal_parts_ticked_one_at_a_time_amortize(self, n_parts, m):
        parts: list[tuple[int, int]] = []
        rewritten = 0
        max_live = 0
        for _ in range(n_parts):
            parts.append((1, 1000))
            n = merge_suffix(parts, 0, m)
            if n:
                epochs = sum(e for e, _ in parts[-n:])
                rows = sum(r for _, r in parts[-n:])
                parts[-n:] = [(epochs, rows)]
                rewritten += epochs
            max_live = max(max_live, len(parts))
        depth = ceil(log2(n_parts)) if n_parts > 1 else 0
        assert rewritten <= n_parts * (depth + 1)
        assert max_live <= depth + m


class TestSuffixCompaction:
    def test_big_part_left_alone_until_newer_parts_catch_up(self):
        ts = TieredStore(policies=tiered_policy())
        ts.register("d", DataClass.SILVER)
        plain = TieredStore(policies=tiered_policy())
        plain.register("d", DataClass.SILVER)
        merged = []
        for i in range(13):
            for store in (ts, plain):
                store.ingest("d", batch(i * 100.0), now=float(i))
            merged.append(ts.compact("d")["merged"])
        # Same cadence as merging everything (every third ingest once
        # four parts exist); only the amount rewritten changes.
        assert merged == [0, 0, 0, 4, 0, 0, 3, 0, 0, 5, 0, 0, 3]
        assert [e for _, e in live_shapes(ts)] == [10, 3]
        assert ts.query_archive("d") == plain.query_archive("d")

    def test_no_merge_decision_fetches_no_blob(self):
        ts = TieredStore(policies=tiered_policy(compact_min_parts=2))
        ts.register("d", DataClass.SILVER)
        for i in range(4):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        assert ts.compact("d", min_objects=2)["merged"] == 4
        ts.ingest("d", batch(400.0), now=4.0)
        gets = ts.ocean.gets
        # Two live parts meet ``min_objects``, but the old one holds
        # more epochs than the new: decided from manifests alone.
        report = LifecycleManager(ts).tick(now=4.0)
        assert report["compactions"] == 0
        assert ts.ocean.gets == gets

    def test_split_remainder_is_not_mistaken_for_the_newest_part(self):
        # Regression: a retention split gives the remainder a fresh,
        # highest part number though it holds the *oldest* rows.  Picked
        # in key order, the next merge would have stopped at it and left
        # the older-keyed, newer-epoch part 8 stranded in front of it.
        policies = tiered_policy(ocean_retention_s=1000.0)
        ts = TieredStore(policies=policies)
        ts.register("d", DataClass.SILVER)
        plain = TieredStore(policies=policies)
        plain.register("d", DataClass.SILVER)

        def ingest(i, now):
            for store in (ts, plain):
                store.ingest("d", batch(i * 100.0), now=now)

        for i in range(8):
            ingest(i, now=i * 10.0)
        assert ts.compact("d")["merged"] == 8       # -> part 8, epochs 0..70
        ingest(8, now=80.0)                          # part 9, pending
        for store in (ts, plain):
            store.enforce(now=1015.0)                # epochs 0 and 10 expire
        remainder = "d/part-00000010.rcf"
        assert live_shapes(ts) == [(remainder, 6), ("d/part-00000009.rcf", 1)]
        for i in range(9, 12):
            ingest(i, now=1007.0 + i)
        report = LifecycleManager(ts).tick(now=1018.0)
        assert report["compactions"] == 1
        assert report["compacted_parts"] == 4        # part 9 + the three new
        assert live_shapes(ts) == [(remainder, 6), ("d/part-00000014.rcf", 4)]
        assert ts.query_archive("d") == plain.query_archive("d")

    def test_legacy_part_without_spans_counts_as_one_epoch(self):
        from repro.columnar.file_format import write_table

        ts = TieredStore(policies=tiered_policy())
        ts.register("d", DataClass.SILVER)
        ts._allocate_part(ts._meta("d"))
        ts.ocean.put(
            ts.OCEAN_BUCKET,
            "d/part-00000000.rcf",
            write_table(batch(0.0)),
            created_at=0.0,
            user_meta={"dataset": "d", "class": "silver"},  # pre-manifest
        )
        for i in range(1, 4):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        before = ts.query_archive("d")
        assert ts.compact("d")["merged"] == 4
        assert live_shapes(ts) == [("d/part-00000004.rcf", 4)]
        assert ts.query_archive("d") == before


class TestAtomicPartAllocation:
    def test_concurrent_allocation_yields_unique_parts(self):
        # Regression: ``meta.next_part += 1`` used to run outside the
        # registry lock in both ingest and compact, so pipelined ingest
        # racing the compactor could mint the same part key and the
        # second put silently shadowed the first part's rows.
        import threading

        ts = TieredStore()
        ts.register("d", DataClass.SILVER)
        meta = ts._meta("d")
        claimed: list[int] = []
        barrier = threading.Barrier(8)

        def worker():
            barrier.wait()
            for _ in range(250):
                claimed.append(ts._allocate_part(meta))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == list(range(8 * 250))
        assert meta.next_part == 8 * 250

    def test_concurrent_ingest_and_compact_lose_no_rows(self):
        import threading

        ts = TieredStore()
        ts.register("d", DataClass.SILVER)
        for i in range(6):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        errors: list[BaseException] = []

        def ingest_more():
            try:
                for i in range(6, 12):
                    ts.ingest("d", batch(i * 100.0), now=float(i))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        t = threading.Thread(target=ingest_more)
        t.start()
        ts.compact("d", min_objects=2)
        t.join()
        assert not errors
        out = ts.scan_ocean("d")
        assert out.num_rows == 12 * 50  # every ingested row, exactly once


class TestCacheInvalidationOnDelete:
    def test_pre_manifest_part_releases_cache_on_delete(self):
        # Regression: the delete path of enforce() computed the cache
        # token without the blob in hand, so parts written before the
        # manifest existed (no persisted digest) invalidated nothing
        # and their decoded row groups lingered in the cache.
        from repro.columnar.file_format import write_table
        from repro.query import clear_row_group_cache, invalidate_token
        from repro.storage import manifest

        ts = TieredStore()
        ts.register("g", DataClass.GOLD)  # glacier=False: pure delete
        table = batch(0.0)
        blob = write_table(table)
        ts.ocean.put(
            ts.OCEAN_BUCKET,
            "g/part-00000000.rcf",
            blob,
            created_at=0.0,
            user_meta={"dataset": "g", "class": "gold"},  # no digest
        )
        clear_row_group_cache()
        ts.query_archive("g")  # populate the cache under the blob digest
        token = manifest.blob_token(blob)
        assert invalidate_token(token) > 0  # entries exist...
        ts.query_archive("g")  # ...repopulate
        from repro.storage.tiers import DAY_S

        report = ts.enforce(now=6 * 365 * DAY_S)
        assert report["ocean_deleted"] == 1
        assert invalidate_token(token) == 0  # nothing left to release


class TestSortedRewrite:
    def test_compacted_rows_sorted_by_epoch_then_time(self):
        from repro.columnar.file_format import read_table
        from repro.storage import TierPolicy, manifest

        # OCEAN-only policy so late-arriving (out-of-time-order) batches
        # are accepted: concatenation alone would be unsorted.
        policies = {
            DataClass.SILVER: TierPolicy(
                lake_retention_s=None, ocean_retention_s=5e8, glacier=True
            )
        }
        store = TieredStore(policies=policies)
        store.register("power.silver", DataClass.SILVER)
        for i in range(6):
            store.ingest("power.silver", batch(i * 100.0), now=float(i))
        store.ingest("power.silver", batch(50.0), now=6.0)
        store.compact("power.silver")
        meta = store.ocean.list(store.OCEAN_BUCKET, prefix="power.silver/")[0]
        spans = manifest.spans_from_meta(
            meta.user_meta[manifest.SPANS_META_KEY]
        )
        assert [c for c, _ in spans] == sorted(c for c, _ in spans)
        table = read_table(store.ocean.get(store.OCEAN_BUCKET, meta.key))
        assert sum(n for _, n in spans) == table.num_rows
        ts_col = table["timestamp"]
        row = 0
        for _, n in spans:
            chunk = ts_col[row:row + n]
            assert (chunk[1:] >= chunk[:-1]).all()  # time-sorted per epoch
            row += n

    def test_retention_after_compaction_matches_uncompacted(self):
        # Regression: compact() used to stamp the merged object with the
        # newest input's created_at, resurrecting rows already past the
        # retention horizon.  Span-aware retention must expire exactly
        # the rows the uncompacted store would have expired.
        from repro.storage import TierPolicy

        policies = {
            DataClass.SILVER: TierPolicy(
                lake_retention_s=None, ocean_retention_s=2.5, glacier=True
            )
        }

        def build():
            ts = TieredStore(policies=policies)
            ts.register("d", DataClass.SILVER)
            for i in range(6):
                ts.ingest("d", batch(i * 100.0), now=float(i))
            return ts

        plain, compacted = build(), build()
        compacted.compact("d")
        plain.enforce(now=5.0)      # horizon 2.5: epochs 0..2 expire
        compacted.enforce(now=5.0)
        assert plain.scan_ocean("d") == compacted.scan_ocean("d")
        assert compacted.scan_ocean("d").num_rows == 3 * 50

    def test_split_rewrite_archives_expired_prefix(self):
        from repro.columnar.file_format import read_table
        from repro.storage import TierPolicy

        policies = {
            DataClass.SILVER: TierPolicy(
                lake_retention_s=None, ocean_retention_s=2.5, glacier=True
            )
        }
        ts = TieredStore(policies=policies)
        ts.register("d", DataClass.SILVER)
        for i in range(6):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        ts.compact("d")
        report = ts.enforce(now=5.0)
        assert report["ocean_rewritten"] == 1
        keys = [k for k in ts.glacier.keys() if k.endswith("@expired")]
        assert len(keys) == 1
        frozen = read_table(ts.glacier.retrieve(keys[0])[0])
        assert frozen.num_rows == 3 * 50
        assert float(frozen["timestamp"].max()) < 300.0  # epochs 0..2 only

    @given(
        sizes=st.lists(st.integers(1, 40), min_size=4, max_size=14),
        starts=st.lists(st.integers(0, 30), min_size=14, max_size=14),
        m=st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_tiered_store_matches_never_compacted_store(self, sizes, starts, m):
        """Random tables, late arrivals and duplicate timestamps included
        (each batch time-sorted, as the pipeline writes them): compacting
        after every ingest answers ``query_archive`` — row order too —
        exactly like a store that never compacted, and span-aware
        retention then expires exactly the same rows at three horizons."""
        retention = 1000.0
        policies = tiered_policy(
            ocean_retention_s=retention, compact_min_parts=m
        )
        tiered, plain = TieredStore(policies=policies), TieredStore(policies=policies)
        for store in (tiered, plain):
            store.register("d", DataClass.SILVER)
        for i, n in enumerate(sizes):
            table = ColumnTable(
                {
                    "timestamp": starts[i] * 10.0 + np.arange(n) // 2,
                    "node": np.arange(n) % 3,
                    "value": np.arange(n) * 1.5 + i,
                }
            )
            for store in (tiered, plain):
                store.ingest("d", table, now=float(i))
            tiered.compact("d", min_objects=m)
        assert len(tiered._live_parts("d")) <= len(sizes)
        assert tiered.query_archive("d") == plain.query_archive("d")
        k = len(sizes)
        for expired in (k // 4, k // 2, (3 * k) // 4):
            for store in (tiered, plain):
                store.enforce(now=retention + expired - 0.5)
            assert tiered.query_archive("d") == plain.query_archive("d")
            assert tiered.query_archive("d").num_rows == sum(sizes[expired:])


class TestCrashSafeCommit:
    def _store_with_faults(self, specs):
        from repro.faults.injector import FaultInjector, FaultyObjectStore
        from repro.faults.plan import FaultPlan

        ts = TieredStore()
        ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(FaultPlan(specs)))
        ts.register("d", DataClass.SILVER)
        for i in range(6):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        return ts

    def test_crash_between_put_and_deletes_hides_superseded_parts(self):
        from repro.faults.errors import SimulatedCrash
        from repro.faults.plan import FaultKind, FaultSpec

        ts = self._store_with_faults(
            [FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)]
        )
        oracle = ts.scan_ocean("d")
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        # Combined part committed, all six inputs still present — but
        # readers must see each row exactly once.
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 7
        assert ts.scan_ocean("d") == oracle

    def test_sweep_collects_tombstoned_parts(self):
        from repro.faults.errors import SimulatedCrash
        from repro.faults.plan import FaultKind, FaultSpec

        ts = self._store_with_faults(
            [FaultSpec("tier.delete", FaultKind.CRASH, at_call=3)]
        )
        oracle = ts.scan_ocean("d")
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        assert ts.sweep_superseded("d") == 4  # the four survivors
        parts = ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")
        assert len(parts) == 1
        assert ts.scan_ocean("d") == oracle

    def test_crash_before_put_leaves_store_untouched(self):
        from repro.faults.errors import SimulatedCrash
        from repro.faults.plan import FaultKind, FaultSpec

        # Ingest takes puts 1..6; the compaction commit is put 7.
        ts = self._store_with_faults(
            [FaultSpec("tier.put", FaultKind.CRASH, at_call=7)]
        )
        oracle = ts.scan_ocean("d")
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 6
        assert ts.sweep_superseded("d") == 0  # nothing committed
        assert ts.scan_ocean("d") == oracle
        result = ts.compact("d")  # clean retry completes
        assert result["merged"] == 6
        assert ts.scan_ocean("d") == oracle
