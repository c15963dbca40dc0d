"""LifecycleManager: tick phases, policies, scheduling, determinism."""

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.storage import DataClass, LifecycleManager, TieredStore, TierPolicy
from repro.storage.tiers import DAY_S


def batch(t_start, n=50):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": rng.integers(0, 8, n),
            "value": rng.normal(100.0, 10.0, n),
        }
    )


def make_store(policy=None, n_parts=6):
    policies = {DataClass.SILVER: policy} if policy else None
    ts = TieredStore(policies=policies)
    ts.register("d", DataClass.SILVER)
    for i in range(n_parts):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    return ts


class TestTick:
    def test_tick_compacts_and_reports(self):
        ts = make_store()
        mgr = LifecycleManager(ts)
        report = mgr.tick(now=6.0)
        assert report["compactions"] == 1
        assert report["compacted_parts"] == 6
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 1
        assert mgr.ticks == 1
        assert mgr.last_report is report

    def test_tick_respects_compact_min_parts(self):
        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=5 * 365 * DAY_S,
            glacier=True,
            compact_min_parts=8,
        )
        ts = make_store(policy, n_parts=6)
        report = LifecycleManager(ts).tick(now=6.0)
        assert report["compactions"] == 0
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 6

    def test_tick_applies_retention_before_compaction(self):
        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=2.5,
            glacier=True,
            compact_min_parts=2,
        )
        ts = make_store(policy)
        report = LifecycleManager(ts).tick(now=5.0)
        # Epoch parts 0..2 age out whole before the compactor runs, so
        # only the three survivors merge.
        assert report["ocean_archived"] == 3
        assert report["compacted_parts"] == 3
        out = ts.scan_ocean("d")
        assert out.num_rows == 3 * 50

    def test_tick_sweeps_crash_leftovers_first(self):
        from repro.faults.errors import SimulatedCrash
        from repro.faults.injector import FaultInjector, FaultyObjectStore
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

        ts = make_store()
        ts.ocean = FaultyObjectStore(
            ts.ocean,
            FaultInjector(
                FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)])
            ),
        )
        oracle = ts.scan_ocean("d")
        mgr = LifecycleManager(ts)
        with pytest.raises(SimulatedCrash):
            mgr.tick(now=6.0)
        report = mgr.tick(now=6.0)
        assert report["swept"] == 6
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 1
        assert ts.scan_ocean("d") == oracle

    def test_archival_finished_before_a_crash_is_reported_as_archived(self):
        # Regression: the retried tick found the part on tape already and
        # reported it as a deletion, though its rows are in GLACIER.
        from repro.faults.injector import FaultInjector, FaultyObjectStore
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=2.5,
            glacier=True,
            compact_min_parts=2,
        )
        ts = make_store(policy)
        ts.ocean = FaultyObjectStore(
            ts.ocean,
            FaultInjector(
                FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=2)])
            ),
        )
        report, restarts = LifecycleManager(ts).run_with_restarts(now=5.0)
        assert restarts == 1
        # The crashed attempt archived parts 0 and 1 and deleted part 0.
        assert (report["ocean_archived"], report["ocean_deleted"]) == (2, 0)
        assert ts.glacier.keys() == [f"d/part-{i:08d}.rcf" for i in range(3)]

    def test_run_with_restarts_survives_crash_loop(self):
        from repro.faults.injector import FaultInjector, FaultyObjectStore
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

        ts = make_store()
        ts.ocean = FaultyObjectStore(
            ts.ocean,
            FaultInjector(
                FaultPlan(
                    [
                        FaultSpec("tier.delete", FaultKind.CRASH, at_call=2),
                        FaultSpec("tier.delete", FaultKind.CRASH, at_call=5),
                    ]
                )
            ),
        )
        oracle = ts.scan_ocean("d")
        report, restarts = LifecycleManager(ts).run_with_restarts(now=6.0)
        assert restarts == 2
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 1
        assert ts.scan_ocean("d") == oracle

    def test_ticks_are_deterministic(self):
        listings = []
        for _ in range(2):
            ts = make_store()
            LifecycleManager(ts).tick(now=6.0)
            listings.append(
                [
                    (m.key, m.created_at, sorted(m.user_meta.items()))
                    for m in ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")
                ]
            )
        assert listings[0] == listings[1]


class TestFreezePolicy:
    def test_bronze_freeze_archives_before_retention(self):
        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=7 * DAY_S,
            glacier=True,
            freeze_after_s=2.0,
        )
        ts = make_store(policy, n_parts=1)
        report = ts.enforce(now=3.0)  # freeze horizon 1.0 > created 0.0
        assert report["ocean_archived"] == 1
        assert ts.glacier.exists("d/part-00000000.rcf")

    def test_freeze_ignored_for_non_glacier_classes(self):
        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=7 * DAY_S,
            glacier=False,
            freeze_after_s=2.0,
        )
        ts = make_store(policy, n_parts=1)
        report = ts.enforce(now=3.0)
        assert report["ocean_deleted"] == 0
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 1

    def test_invalid_policy_fields_rejected(self):
        with pytest.raises(ValueError):
            TierPolicy(
                lake_retention_s=None,
                ocean_retention_s=1.0,
                glacier=True,
                compact_min_parts=1,
            )
        with pytest.raises(ValueError):
            TierPolicy(
                lake_retention_s=None,
                ocean_retention_s=1.0,
                glacier=True,
                freeze_after_s=0.0,
            )


class TestMangledSpansRetention:
    """A part whose spans do not cover its rows cannot be split: it
    ages as one block under ``created_at`` and costs no decode."""

    def test_split_that_cannot_happen_is_no_rewrite_and_no_decode(
        self, monkeypatch
    ):
        from repro.storage import manifest, tiers

        policy = TierPolicy(
            lake_retention_s=None, ocean_retention_s=10.0, glacier=True
        )
        ts = make_store(policy)
        ts.compact("d")  # one part: epochs 0..5, created_at 5.0
        (obj,) = ts._live_parts("d")
        assert obj.created_at == 5.0
        ts.ocean.put(
            ts.OCEAN_BUCKET,
            obj.key,
            ts.ocean.get(ts.OCEAN_BUCKET, obj.key),
            created_at=obj.created_at,
            user_meta={
                **obj.meta.user_meta,
                manifest.SPANS_META_KEY: manifest.spans_to_meta(
                    [(0.0, 50), (9.0, 50)]  # 100 of 300 rows
                ),
            },
            overwrite=True,
        )
        decodes = []
        read_table = tiers.read_table
        monkeypatch.setattr(
            tiers,
            "read_table",
            lambda *a, **k: decodes.append(a) or read_table(*a, **k),
        )
        # Horizons 2..4 straddle the bogus spans, not ``created_at``.
        for now in (12.0, 13.0, 14.0):
            report = ts.enforce(now=now)
            assert report["ocean_rewritten"] == 0
            assert report["ocean_archived"] == 0
        assert decodes == []
        assert [m.key for m in ts._live_parts("d")] == [obj.key]
        # Horizon 5.5 passes ``created_at`` while the second bogus span
        # (9.0) still looks alive: the part goes whole.
        report = ts.enforce(now=15.5)
        assert report["ocean_archived"] == 1
        assert report["ocean_rewritten"] == 0
        assert ts._live_parts("d") == ()
        assert ts.glacier.exists(obj.key)
        assert decodes == []


class TestFrameworkScheduling:
    WINDOW_S = 30.0

    def _run(self, n_windows, **opt_kwargs):
        from repro.core import DataPlaneOptions, ODAFramework
        from repro.perf import reset_fast_path_caches
        from repro.telemetry import MINI, synthetic_job_mix

        rng = np.random.default_rng(11)
        allocation = synthetic_job_mix(MINI, 0.0, n_windows * self.WINDOW_S, rng)
        fw = ODAFramework(
            MINI,
            allocation,
            seed=3,
            options=DataPlaneOptions(lifecycle=True, **opt_kwargs),
        )
        reset_fast_path_caches()
        try:
            fw.run(0.0, n_windows * self.WINDOW_S, self.WINDOW_S)
        finally:
            fw.close()
        return fw

    def test_options_validation(self):
        from repro.core import DataPlaneOptions

        with pytest.raises(ValueError):
            DataPlaneOptions(lifecycle_every_s=60.0)  # needs lifecycle
        with pytest.raises(ValueError):
            DataPlaneOptions(lifecycle=True, lifecycle_every_s=0.0)

    def test_ticks_every_window_by_default(self):
        fw = self._run(4)
        assert fw.lifecycle.ticks == 4

    def test_tick_interval_uses_simulated_time(self):
        fw = self._run(4, lifecycle_every_s=60.0)
        assert fw.lifecycle.ticks == 2  # due at t=60 and t=120

    def test_lifecycle_compacts_the_archive(self):
        fw = self._run(6)
        parts = fw.tiers.ocean.list(
            fw.tiers.OCEAN_BUCKET, prefix="power.silver/"
        )
        # Six windows of small parts collapse under the default
        # compact_min_parts=4 policy instead of accumulating.
        assert len(parts) < 6

    def test_default_rollup_serves_dashboard(self):
        fw = self._run(4)
        panel = fw.tiers.query_rollup("power.silver.node_power")
        assert panel.num_rows > 0
        assert "mean" in panel.column_names


class TestCompactionWorkCounters:
    """Seed-pure work counters for a managed run: what compaction cost
    is pinned as counts of parts, rows and bytes — not as wall time."""

    N_WINDOWS = 24
    WINDOW_S = 30.0
    #: Live parts per dataset after each of the 24 ticks.  Everything
    #: under one row group merges whole every third tick, as it always
    #: has; ``power.bronze`` outgrows a row group at the second merge
    #: and from then on keeps its big part out of most rewrites.
    SMALL = "123" * 8
    LIVE_PARTS = {
        "facility.silver": SMALL,
        "interconnect.silver": SMALL,
        "oda_health.silver": SMALL,
        "power.bronze": "123123123232312323232343",
        "power.gold_profiles": SMALL,
        "power.silver": SMALL,
        "storage_io.silver": SMALL,
    }

    def test_seeded_managed_run_pins_compaction_work(self):
        from repro.core import DataPlaneOptions, ODAFramework
        from repro.obs import METRICS
        from repro.perf import reset_all, reset_fast_path_caches
        from repro.telemetry import MINI, synthetic_job_mix

        horizon = self.N_WINDOWS * self.WINDOW_S
        allocation = synthetic_job_mix(
            MINI, 0.0, horizon, np.random.default_rng(11)
        )
        reset_all()
        fw = ODAFramework(
            MINI,
            allocation,
            seed=3,
            options=DataPlaneOptions(
                lifecycle=True,
                lineage=True,
                self_telemetry=True,
                shards=3,
            ),
        )
        reset_fast_path_caches()
        live = {name: "" for name in self.LIVE_PARTS}
        reported = 0
        try:
            for i in range(self.N_WINDOWS):
                fw.run(i * self.WINDOW_S, (i + 1) * self.WINDOW_S, self.WINDOW_S)
                reported += fw.lifecycle.last_report["compacted_bytes_rewritten"]
                assert sorted(fw.tiers.datasets()) == sorted(live)
                for name in live:
                    live[name] += str(len(fw.tiers._live_parts(name)))
        finally:
            fw.close()
        assert fw.lifecycle.ticks == self.N_WINDOWS
        assert live == self.LIVE_PARTS
        assert METRICS.counter("tier.compact.parts_merged") == 198
        assert METRICS.counter("tier.compact.rows_rewritten") == 639_559
        assert METRICS.counter("tier.compact.bytes_rewritten") == 5_872_893
        assert reported == 5_872_893
        # How the 51 merges went: ``power.gold_profiles`` is written in
        # job order, so all 7 of its merges have a time column to sort;
        # every other dataset's parts (7 merges each, ``power.bronze``
        # 9) are in (epoch, time) order as they stand.
        assert METRICS.counter("tier.compact.merges_in_order") == 44
        assert METRICS.counter("tier.compact.merges_resorted") == 7
        # ``power.bronze`` is the one dataset to outgrow a row group,
        # and its big part joins one merge in these 24 windows: its one
        # full group is copied, not encoded again.
        assert METRICS.counter("tier.compact.groups_spliced") == 1
        assert METRICS.counter("tier.compact.rows_spliced") == 65_536
