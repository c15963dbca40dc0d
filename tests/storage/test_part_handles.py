"""Part read handles: opened once, valid for their bytes, dropped on delete.

Each ``LivePart`` record of the tier store's part table holds the open
``RcfReader`` of the bytes a scan fetched, and its manifest entries
parsed once, so a repeated scan pays neither the content hash, the
footer and header parses, nor the manifest JSON again.  These tests pin
that with exact, clock-free work counters (``query.parts_opened``,
``query.bytes_hashed``, ``manifest.parses``), and hold the handles to
their contract: a handle answers only for the bytes it was opened on,
never outlives its part, and is never consulted by the oracle.
"""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable
from repro.columnar.file_format import write_table
from repro.faults.errors import SimulatedCrash
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import METRICS
from repro.perf.baseline import baseline_mode
from repro.query import (
    clear_row_group_cache,
    invalidate_token,
    row_group_cache_stats,
)
from repro.storage import DataClass, ObjectStore, TierPolicy, TieredStore, manifest
from tests.storage.compaction_oracle import open_handles

N_PARTS = 4
COUNTERS = ("query.parts_opened", "query.bytes_hashed", "manifest.parses")


def batch(t_start, n=20):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": (np.arange(n) % 4).astype(float),
            "value": rng.normal(100.0, 10.0, n),
        }
    )


@pytest.fixture(autouse=True)
def isolated():
    """Cache-entry counts below are exact only from a cold cache."""
    clear_row_group_cache()
    yield
    clear_row_group_cache()


def build_store(ocean=None, policy=None):
    ts = TieredStore(
        ocean=ocean, policies={DataClass.SILVER: policy} if policy else None
    )
    ts.register("d", DataClass.SILVER)
    return ts


@pytest.fixture
def store():
    ts = build_store()
    for i in range(N_PARTS):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    return ts


def work(fn):
    """Run ``fn``; return its result and the work-counter deltas."""
    before = [METRICS.counter(c) for c in COUNTERS]
    out = fn()
    return out, tuple(METRICS.counter(c) - b for c, b in zip(COUNTERS, before))


def part_sizes(ts):
    return [m.size for m in ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")]


def present_keys(ts):
    return {m.key for m in ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")}


def assert_fast_equals_oracle(ts, *args, **kwargs):
    """Fast path == ``baseline_mode`` answer, and no handle is orphaned."""
    fast = write_table(ts.query_archive("d", *args, **kwargs))
    with baseline_mode():
        assert write_table(ts.query_archive("d", *args, **kwargs)) == fast
    assert set(open_handles(ts)) <= present_keys(ts)
    return fast


class TestWorkCounters:
    def test_second_identical_query_opens_nothing(self, store):
        _, first = work(lambda: store.query_archive("d"))
        # Per part: its bytes hashed once, its stats and spans manifests
        # decoded once; the schema is read off the first part only and
        # an absent ``replaces`` is not a parse.
        assert first == (N_PARTS, sum(part_sizes(store)), 2 * N_PARTS + 1)
        again, second = work(lambda: store.query_archive("d"))
        assert second == (0, 0, 0)
        assert again.num_rows == 20 * N_PARTS
        # A different question of the same parts re-opens nothing either.
        _, third = work(
            lambda: store.query_archive(
                "d", 100.0, 250.0, Col("node") == 1.0, ["timestamp", "value"]
            )
        )
        assert third == (0, 0, 0)

    def test_pruned_parts_are_never_opened(self, store):
        _, (opened, hashed, _) = work(
            lambda: store.query_archive("d", 100.0, 120.0)
        )
        assert (opened, hashed) == (1, part_sizes(store)[1])
        assert list(open_handles(store)) == ["d/part-00000001.rcf"]

    def test_compaction_retires_k_handles_and_next_query_opens_one(self, store):
        store.query_archive("d")
        assert len(open_handles(store)) == N_PARTS
        merged = store.compact("d", min_objects=2)["merged"]
        assert merged == N_PARTS
        assert open_handles(store) == {}
        _, (opened, hashed, parses) = work(lambda: store.query_archive("d"))
        assert (opened, hashed) == (1, part_sizes(store)[0])
        # The merged part is a new record: its replaces, spans, stats
        # and schema manifests, each parsed once — the schema string is
        # the inputs', but parses belong to records, not to strings.
        assert parses == 4
        assert work(lambda: store.query_archive("d"))[1] == (0, 0, 0)

    def test_store_restart_reopens_each_scanned_part_once(self, store):
        want = store.query_archive("d")
        parses0 = METRICS.counter("manifest.parses")
        restarted = build_store(ocean=store.ocean)
        # A new store holds no record yet: registering lists the parts,
        # which parses their spans (ingest order) once.
        assert METRICS.counter("manifest.parses") - parses0 == N_PARTS
        sizes = part_sizes(store)
        _, (opened, hashed, parses) = work(
            lambda: restarted.query_archive("d", 100.0, 120.0)
        )
        assert (opened, hashed) == (1, sizes[1])
        assert parses == N_PARTS + 1  # every part's stats, the schema once
        got, (opened, hashed, _) = work(lambda: restarted.query_archive("d"))
        assert (opened, hashed) == (N_PARTS - 1, sum(sizes) - sizes[1])
        assert got == want
        assert work(lambda: restarted.query_archive("d"))[1] == (0, 0, 0)

    def test_oracle_never_touches_a_handle(self, store):
        with baseline_mode():
            ref, (opened, hashed, _) = work(lambda: store.query_archive("d"))
        assert (opened, hashed) == (0, 0)
        assert open_handles(store) == {}
        assert store.query_archive("d") == ref
        # Nor does it read through handles the fast path left behind.
        with baseline_mode():
            again, (opened, hashed, _) = work(lambda: store.query_archive("d"))
        assert (opened, hashed) == (0, 0)
        assert again == ref


class TestHandleValidity:
    def test_overwrite_of_a_live_key_reopens(self, store):
        store.query_archive("d")
        key = "d/part-00000002.rcf"
        old = open_handles(store)[key].digest()
        head = store.ocean.head(store.OCEAN_BUCKET, key)
        replacement = batch(200.0)
        replacement = ColumnTable(
            {
                n: replacement[n] + (7.0 if n == "value" else 0.0)
                for n in replacement.column_names
            }
        )
        # Same key, same (now stale) manifest, different bytes.
        store.ocean.put(
            store.OCEAN_BUCKET,
            key,
            write_table(replacement),
            created_at=head.created_at,
            user_meta=head.user_meta,
            overwrite=True,
        )
        got, (opened, hashed, _) = work(
            lambda: store.query_archive("d", 200.0, 300.0)
        )
        assert (opened, hashed) == (1, len(write_table(replacement)))
        assert got == replacement
        assert_fast_equals_oracle(store)
        # The old bytes' decoded groups went when their handle did, and
        # so did those of the run of small parts they were scanned in.
        # With one member's bytes off its manifest the run is scanned
        # part by part: each part caches its two decoded (non-raw)
        # columns.
        assert invalidate_token(old) == 0
        assert row_group_cache_stats()["entries"] == 2 * N_PARTS

    def test_store_that_copies_on_get_reopens_every_scan(self):
        class CopyingStore(ObjectStore):
            def get(self, bucket, key):
                return bytes(bytearray(super().get(bucket, key)))

        ts = build_store(ocean=CopyingStore())
        for i in range(N_PARTS):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        first = assert_fast_equals_oracle(ts)
        _, (opened, hashed, _) = work(lambda: ts.query_archive("d"))
        assert (opened, hashed) == (N_PARTS, sum(part_sizes(ts)))
        assert assert_fast_equals_oracle(ts) == first
        assert len(open_handles(ts)) == N_PARTS  # replaced in place, not piled up

    def test_corrupted_part_releases_its_cached_groups_on_delete(self):
        # Regression: the manifest digest is taken from the clean blob
        # before a CORRUPT_PART put perturbs it, while scans cache under
        # the digest of the bytes they fetched — invalidating by the
        # manifest digest left the corrupted part's decoded groups in
        # the cache until LRU eviction.
        injector = FaultInjector(
            FaultPlan([FaultSpec("tier.put", FaultKind.CORRUPT_PART, at_call=2)])
        )
        ts = build_store()
        ts.ocean = FaultyObjectStore(ts.ocean, injector)
        for i in range(N_PARTS):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        corrupted = injector.corrupted[0][2]
        head = ts.ocean.head(ts.OCEAN_BUCKET, corrupted)
        before = row_group_cache_stats()["entries"]
        ts.query_archive("d")
        assert row_group_cache_stats()["entries"] > before
        assert (
            open_handles(ts)[corrupted].digest()
            != head.user_meta[manifest.DIGEST_META_KEY]
        )
        ts.compact("d", min_objects=2)
        assert row_group_cache_stats()["entries"] == before
        assert open_handles(ts) == {}


class TestLifecycleEquivalence:
    """Fast path == oracle across every kind of part transition."""

    POLICY = TierPolicy(
        lake_retention_s=None,
        ocean_retention_s=3.5,
        glacier=True,
        compact_min_parts=2,
    )

    def test_ingest_compact_split_sweep(self):
        ts = build_store(policy=self.POLICY)
        crash = FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)])
        ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(crash))
        for i in range(N_PARTS):
            ts.ingest("d", batch(i * 100.0), now=float(i))
            assert_fast_equals_oracle(ts)
        everything = assert_fast_equals_oracle(ts)
        assert len(open_handles(ts)) == N_PARTS

        # Compaction commits, then dies before its first delete: all
        # four inputs are superseded but present, handles and all.
        with pytest.raises(SimulatedCrash):
            ts.compact("d", min_objects=2)
        assert len(present_keys(ts)) == N_PARTS + 1
        assert assert_fast_equals_oracle(ts) == everything
        assert assert_fast_equals_oracle(ts, 100.0, 250.0) != everything

        # The sweep deletes them; each swept key drops its handle.
        assert ts.sweep_superseded("d") == N_PARTS
        assert list(open_handles(ts)) == sorted(present_keys(ts))
        assert len(open_handles(ts)) == 1
        assert assert_fast_equals_oracle(ts) == everything

        # Retention splits the merged part: epochs 0 and 1 expire, the
        # remainder is rewritten under a fresh key and opened afresh.
        merged_key = next(iter(open_handles(ts)))
        report = ts.enforce(now=5.0)
        assert report["ocean_rewritten"] == 1
        assert merged_key not in open_handles(ts)
        remainder = assert_fast_equals_oracle(ts)
        assert remainder != everything
        assert remainder == write_table(
            ColumnTable.concat([batch(200.0), batch(300.0)])
        )
        assert list(open_handles(ts)) == sorted(present_keys(ts))
