"""Materialized Gold rollups: exactness, incrementality, reconciliation."""

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.pipeline.ops import group_by_agg
from repro.storage import DataClass, RollupSpec, TieredStore

AGGS = ["sum", "count", "min", "max", "mean"]


def batch(t_start, n=60, with_nan=False):
    rng = np.random.default_rng(int(t_start) + 1)
    values = rng.integers(50, 150, n).astype(float)  # exactly summable
    if with_nan:
        values[rng.integers(0, n, 3)] = np.nan
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": rng.integers(0, 5, n),
            "input_power": values,
        }
    )


def make_store(n_parts=5, with_nan=False):
    ts = TieredStore()
    ts.register("d", DataClass.SILVER)
    for i in range(n_parts):
        ts.ingest("d", batch(i * 100.0, with_nan=with_nan), now=float(i))
    return ts


NODE_SPEC = RollupSpec(
    name="d.node_power", source="d", keys=("node",), value="input_power"
)


def oracle(ts, keys=("node",), bucket_s=None):
    scan = ts.scan_ocean("d")
    if bucket_s is not None:
        from repro.util.timeseries import bucket_indices

        scan = scan.with_column(
            "bucket", bucket_indices(scan["timestamp"], bucket_s) * bucket_s
        )
        keys = ("bucket",) + tuple(keys)
    return group_by_agg(
        scan,
        list(keys),
        {
            "sum": ("input_power", "sum"),
            "count": ("input_power", "count"),
            "min": ("input_power", "min"),
            "max": ("input_power", "max"),
            "mean": ("input_power", "mean"),
        },
    )


def assert_matches(got, want):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in got.column_names:
        assert np.array_equal(got[name], want[name], equal_nan=True), name


class TestRollupExactness:
    def test_matches_scan_oracle(self):
        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        assert_matches(ts.query_rollup("d.node_power"), oracle(ts))

    def test_nan_semantics_match_group_by_agg(self):
        ts = make_store(with_nan=True)
        ts.add_rollup(NODE_SPEC)
        assert_matches(ts.query_rollup("d.node_power"), oracle(ts))

    def test_bucketed_rollup_matches_oracle(self):
        ts = make_store()
        ts.add_rollup(
            RollupSpec(
                name="d.bucketed",
                source="d",
                keys=("node",),
                value="input_power",
                bucket_s=100.0,
            )
        )
        assert_matches(
            ts.query_rollup("d.bucketed"), oracle(ts, bucket_s=100.0)
        )

    def test_float_sums_agree_across_part_layouts_to_rounding(self):
        """``count``/``min``/``max`` merge exactly whatever the layout;
        a float ``sum`` (and ``mean``) is a sum of per-part sums, so
        three layouts of the same rows may differ in the last ulp —
        from each other and from the scan oracle — and no further."""
        from repro.storage import TierPolicy

        policies = {
            DataClass.SILVER: TierPolicy(
                lake_retention_s=None,
                ocean_retention_s=5e8,
                glacier=True,
                row_group_size=8,  # no part is small: suffix merges tier
            )
        }

        def build(compact_each_ingest):
            ts = TieredStore(policies=policies)
            ts.register("d", DataClass.SILVER)
            ts.add_rollup(NODE_SPEC)
            for i in range(13):
                rng = np.random.default_rng(100 + i)
                table = batch(i * 100.0).with_column(
                    "input_power", rng.normal(310.7, 95.3, 60)
                )
                ts.ingest("d", table, now=float(i))
                if compact_each_ingest:
                    ts.compact("d")
            return ts

        sprawl, tiered, single = build(False), build(True), build(False)
        assert single.compact("d")["merged"] == 13
        assert [len(ts._live_parts("d")) for ts in (sprawl, tiered, single)] == [
            13, 2, 1,
        ]
        want = oracle(sprawl)
        for ts in (sprawl, tiered, single):
            got = ts.query_rollup("d.node_power")
            assert got.column_names == want.column_names
            for name in ("node", "count", "min", "max"):
                assert np.array_equal(got[name], want[name]), name
            for name in ("sum", "mean"):
                np.testing.assert_allclose(
                    got[name], want[name], rtol=1e-12, atol=0.0, err_msg=name
                )

    def test_empty_store_yields_empty_schema(self):
        ts = TieredStore()
        ts.register("d", DataClass.SILVER)
        ts.add_rollup(NODE_SPEC)
        out = ts.query_rollup("d.node_power")
        assert out.column_names == ["node"] + AGGS
        assert out.num_rows == 0


class TestRollupMaintenance:
    def test_ingest_maintains_incrementally(self):
        ts = make_store(n_parts=2)
        ts.add_rollup(NODE_SPEC)
        ts.query_rollup("d.node_power")  # absorb existing parts
        ts.ingest("d", batch(900.0), now=9.0)
        assert_matches(ts.query_rollup("d.node_power"), oracle(ts))

    def test_compaction_preserves_answer_without_backfill(self):
        from repro.obs import METRICS

        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        before = ts.query_rollup("d.node_power")
        ts.compact("d")
        backfills = METRICS.counter("rollup.parts_backfilled")
        after = ts.query_rollup("d.node_power")
        assert METRICS.counter("rollup.parts_backfilled") == backfills
        assert_matches(after, before)

    def test_retention_expiry_drops_rows(self):
        from repro.storage import TierPolicy

        policies = {
            DataClass.SILVER: TierPolicy(
                lake_retention_s=None, ocean_retention_s=2.5, glacier=True
            )
        }
        ts = TieredStore(policies=policies)
        ts.register("d", DataClass.SILVER)
        for i in range(5):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        ts.add_rollup(NODE_SPEC)
        ts.query_rollup("d.node_power")
        ts.enforce(now=4.0)  # epochs 0 and 1 expire
        assert_matches(ts.query_rollup("d.node_power"), oracle(ts))

    def test_serves_from_partials_without_fetching(self):
        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        ts.query_rollup("d.node_power")  # warm (backfills existing parts)
        gets = ts.ocean.gets
        out = ts.query_rollup("d.node_power")
        assert ts.ocean.gets == gets  # no blob fetched, no part decoded
        assert out.num_rows > 0

    def test_merged_result_is_memoized(self):
        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        first = ts.query_rollup("d.node_power")
        assert ts.query_rollup("d.node_power") is first


class TestRollupReconciliation:
    def test_late_registration_backfills_lazily(self):
        ts = make_store()
        ts.add_rollup(NODE_SPEC)  # after all ingests
        assert_matches(ts.query_rollup("d.node_power"), oracle(ts))

    def test_crash_interrupted_compaction_stays_consistent(self):
        from repro.faults.errors import SimulatedCrash
        from repro.faults.injector import FaultInjector, FaultyObjectStore
        from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

        ts = TieredStore()
        ts.ocean = FaultyObjectStore(
            ts.ocean,
            FaultInjector(
                FaultPlan(
                    [FaultSpec("tier.delete", FaultKind.CRASH, at_call=2)]
                )
            ),
        )
        ts.register("d", DataClass.SILVER)
        for i in range(5):
            ts.ingest("d", batch(i * 100.0), now=float(i))
        ts.add_rollup(NODE_SPEC)
        want = ts.query_rollup("d.node_power")
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        # Superseded parts still on disk; reconcile must not double count.
        assert_matches(ts.query_rollup("d.node_power"), want)
        ts.sweep_superseded("d")
        assert_matches(ts.query_rollup("d.node_power"), want)

    def test_duplicate_name_and_unknown_source_rejected(self):
        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        with pytest.raises(ValueError):
            ts.add_rollup(NODE_SPEC)
        with pytest.raises(KeyError):
            ts.add_rollup(
                RollupSpec(
                    name="x", source="nope", keys=("node",), value="input_power"
                )
            )
        with pytest.raises(KeyError):
            ts.query_rollup("unregistered")


class TestAppWiring:
    def test_rats_rollup_report_matches_scan_report(self):
        from repro.apps.rats import RatsReport
        from repro.scheduler.accounting import AccountingLedger

        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        rats = RatsReport(AccountingLedger(), [])
        scan = rats.archived_power_usage(ts, "d")
        rolled = rats.archived_power_usage(ts, "d", rollup="d.node_power")
        assert scan.column_names == rolled.column_names
        for name in scan.column_names:
            assert np.array_equal(scan[name], rolled[name]), name
        with pytest.raises(ValueError):
            rats.archived_power_usage(ts, "d", t0=0.0, rollup="d.node_power")

    def test_dashboard_fleet_summary_columns(self):
        from repro.apps.ua_dashboard import UserAssistanceDashboard
        from repro.telemetry import MINI, synthetic_job_mix

        ts = make_store()
        ts.add_rollup(NODE_SPEC)
        rng = np.random.default_rng(0)
        dash = UserAssistanceDashboard(
            ts.lake, synthetic_job_mix(MINI, 0.0, 60.0, rng)
        )
        panel = dash.fleet_power_summary(ts, rollup="d.node_power")
        assert panel.column_names == [
            "node", "mean_power_w", "peak_power_w", "samples",
        ]
        assert panel.num_rows == 5
