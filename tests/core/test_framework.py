"""Integration tests for the ODAFramework facade (end-to-end ingest)."""

import numpy as np
import pytest

from repro.core import ODAFramework
from repro.telemetry import MINI, synthetic_job_mix


@pytest.fixture(scope="module")
def framework():
    allocation = synthetic_job_mix(MINI, 0.0, 3600.0, np.random.default_rng(11))
    fw = ODAFramework(MINI, allocation, seed=0)
    fw.run(0.0, 300.0, window_s=60.0)
    return fw


class TestEndToEnd:
    def test_windows_processed(self, framework):
        assert len(framework.windows) == 5

    def test_refinement_funnel(self, framework):
        for w in framework.windows:
            assert w.bronze_rows > w.silver_rows > 0
            assert w.reduction > 3

    def test_all_topics_fed(self, framework):
        for topic in ("power", "perf_counters", "syslog", "storage_io",
                      "interconnect", "facility"):
            assert framework.broker.topic_records(topic) > 0

    def test_tier_placement(self, framework):
        fp = framework.tier_footprint()
        assert fp["lake"] > 0      # silver + gold online
        assert fp["ocean"] > 0     # everything on disk
        assert fp["stream"] > 0    # in-flight records retained

    def test_silver_queryable_online(self, framework):
        out = framework.tiers.query_online("power.silver", 0.0, 120.0)
        assert out.num_rows > 0
        assert "input_power" in out

    def test_gold_profiles_have_jobs(self, framework):
        out = framework.tiers.query_online("power.gold_profiles")
        assert out.num_rows > 0
        assert (out["job_id"] >= 0).all()

    def test_ingest_volumes_positive(self, framework):
        volumes = framework.ingest_volumes()
        assert volumes["power"] > volumes["facility"]

    def test_medallion_stats_accumulated(self, framework):
        funnel = framework.medallion.funnel()
        assert funnel[0].invocations == 5

    def test_invalid_window(self, framework):
        with pytest.raises(ValueError):
            framework.run(0.0, 10.0, window_s=0.0)

    @pytest.mark.parametrize("window_s", [float("inf"), float("nan")])
    def test_non_finite_window_rejected(self, framework, window_s):
        # 0 * inf is NaN, so such a step once gave no window and no error.
        with pytest.raises(ValueError, match="finite"):
            framework.run(0.0, 10.0, window_s=window_s)

    def test_syslog_fans_out_to_log_index(self, framework):
        assert len(framework.logs) > 0
        hits = framework.logs.search("kernel", limit=5)
        assert all("kernel" in d.message.lower() for d in hits)

    def test_syslog_fans_out_to_copacetic(self, framework):
        assert framework.copacetic.events_processed == len(framework.logs)

    def test_multiple_silver_tables_online(self, framework):
        for table in ("power.silver", "storage_io.silver",
                      "interconnect.silver", "facility.silver"):
            assert framework.tiers.query_online(table).num_rows > 0

    def test_facility_silver_wide_format(self, framework):
        out = framework.tiers.query_online("facility.silver")
        assert "supply_temp_c" in out
        assert "return_temp_c" in out
        assert (out["return_temp_c"] >= out["supply_temp_c"] - 1.0).all()

    def test_cooling_plant_view(self, framework):
        from repro.apps import LiveVisualAnalytics

        lva = LiveVisualAnalytics(
            framework.tiers, framework.fleet.power.catalog,
            framework.allocation,
        )
        view = lva.cooling_plant_view(0.0, 300.0)
        assert view.num_rows > 0
        assert "pump_power_w" in view
        assert (np.diff(view["timestamp"]) >= 0).all()

    def test_no_reprocessing_across_windows(self, framework):
        """Each power record is refined exactly once (consumer-group
        offsets advance)."""
        total_bronze = sum(w.bronze_rows for w in framework.windows)
        assert total_bronze == framework.medallion.stats["bronze"].rows_out
