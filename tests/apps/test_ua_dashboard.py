"""Unit + integration tests for the User Assistance dashboard (Fig. 6)."""

import warnings

import numpy as np
import pytest

from repro.apps import UserAssistanceDashboard


@pytest.fixture
def dashboard(deployment):
    dash = UserAssistanceDashboard(
        deployment["tiers"].lake, deployment["allocation"]
    )
    for batch in deployment["events"]:
        dash.feed_events(batch)
    return dash


def job_in_first_hour(deployment):
    for job in deployment["allocation"].jobs:
        if job.start < 1800.0 and job.end > 900.0:
            return job
    raise RuntimeError("fixture produced no early job")


class TestJobOverview:
    def test_overview_compiles_all_streams(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        overview = dashboard.job_overview(job.job_id)
        assert overview.power.num_rows > 0
        assert overview.io.num_rows > 0
        assert overview.fabric.num_rows > 0

    def test_overview_scoped_to_job_nodes(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        overview = dashboard.job_overview(job.job_id)
        assert set(np.unique(overview.power["node"])) <= set(job.nodes.tolist())

    def test_overview_scoped_to_job_lifetime(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        overview = dashboard.job_overview(job.job_id)
        ts = overview.power["timestamp"]
        assert ts.min() >= job.start - 15.0
        assert ts.max() < job.end

    def test_events_scoped_to_job(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        overview = dashboard.job_overview(job.job_id)
        if len(overview.events):
            assert set(np.unique(overview.events.component_ids)) <= set(
                job.nodes.tolist()
            )

    def test_unknown_job_raises(self, dashboard):
        with pytest.raises(KeyError):
            dashboard.job_overview(999_999)

    def test_ticket_counter(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        before = dashboard.tickets_resolved
        dashboard.job_overview(job.job_id)
        assert dashboard.tickets_resolved == before + 1


class TestDiagnosis:
    def test_idle_job_flagged(self, dashboard, deployment):
        idle_jobs = [
            j for j in deployment["allocation"].jobs
            if j.archetype in ("idle", "debug") and j.start < 3000.0
        ]
        if not idle_jobs:
            pytest.skip("no idle jobs in mix")
        overview = dashboard.job_overview(idle_jobs[0].job_id)
        codes = {f.code for f in overview.findings}
        assert "idle-gpus" in codes

    def test_busy_job_not_flagged_idle(self, dashboard, deployment):
        busy = [
            j for j in deployment["allocation"].jobs
            if j.archetype in ("climate", "hpl") and j.start < 1800.0
            and j.end > 2400.0
        ]
        if not busy:
            pytest.skip("no busy jobs in mix")
        overview = dashboard.job_overview(busy[0].job_id)
        assert "idle-gpus" not in {f.code for f in overview.findings}

    def test_findings_carry_evidence(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        overview = dashboard.job_overview(job.job_id)
        for finding in overview.findings:
            assert finding.severity in ("info", "warning", "critical")
            assert finding.message


class TestDiagnosisEdges:
    """The _check_* rules on degenerate inputs: empty/missing tables and
    zero-row job slices must diagnose cleanly, never crash."""

    @staticmethod
    def _empty_overview(deployment):
        from repro.apps.ua_dashboard import JobOverview
        from repro.columnar.table import ColumnTable
        from repro.telemetry.schema import EventBatch

        job = deployment["allocation"].jobs[0]
        empty = ColumnTable({})
        return JobOverview(
            job, empty, EventBatch.empty(), empty, empty
        )

    def test_empty_overview_produces_no_findings(self, dashboard, deployment):
        overview = self._empty_overview(deployment)
        assert dashboard._check_idle_gpus(overview) == []
        assert dashboard._check_fabric_stalls(overview) == []
        assert dashboard._check_error_bursts(overview) == []
        assert dashboard._check_node_imbalance(overview) == []
        assert dashboard._diagnose(overview) == []

    def test_missing_columns_are_tolerated(self, dashboard, deployment):
        """Tables that exist but lack the diagnostic columns (e.g. a
        fabric silver without nic_stall_frac) must not crash the rules."""
        import numpy as np

        from repro.columnar.table import ColumnTable

        overview = self._empty_overview(deployment)
        overview.fabric = ColumnTable(
            {"timestamp": np.zeros(3), "node": np.zeros(3)}
        )
        overview.power = ColumnTable(
            {"timestamp": np.zeros(3), "node": np.arange(3.0)}
        )
        assert dashboard._check_fabric_stalls(overview) == []
        assert dashboard._check_idle_gpus(overview) == []
        assert dashboard._check_node_imbalance(overview) == []

    def test_single_node_job_skips_imbalance(self, dashboard, deployment):
        import numpy as np

        from repro.columnar.table import ColumnTable

        overview = self._empty_overview(deployment)
        overview.power = ColumnTable(
            {
                "timestamp": np.zeros(4),
                "node": np.zeros(4),
                "input_power": np.array([100.0, 900.0, 100.0, 900.0]),
            }
        )
        assert dashboard._check_node_imbalance(overview) == []

    def test_zero_row_job_slice_compiles(self, deployment):
        """A dashboard over a lake with no silver tables yields zero-row
        slices for every job; the overview must still compile and
        diagnose to nothing."""
        from repro.storage.lake import TimeSeriesLake

        dash = UserAssistanceDashboard(
            TimeSeriesLake(), deployment["allocation"]
        )
        job = deployment["allocation"].jobs[0]
        overview = dash.job_overview(job.job_id)
        assert overview.power.num_rows == 0
        assert overview.io.num_rows == 0
        assert overview.fabric.num_rows == 0
        assert overview.findings == []


def _reference_idle_gpus(dash, power):
    """The idle-GPU rule with one ``np.nanmean`` per column: the spec."""
    gpu_cols = [c for c in power.column_names
                if c.startswith("gpu") and c.endswith("_power")]
    if not gpu_cols or power.num_rows == 0:
        return []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN column
        means = [np.nanmean(power[c]) for c in gpu_cols]
    mean_gpu = float(np.mean(means))
    if mean_gpu < dash.IDLE_GPU_POWER_W:
        return [("idle-gpus", {"mean_gpu_power_w": mean_gpu})]
    return []


def _reference_node_imbalance(power):
    """The imbalance rule over a full ``group_by_agg``: the spec."""
    from repro.pipeline.ops import group_by_agg

    if power.num_rows == 0 or "input_power" not in power:
        return []
    per_node = group_by_agg(power, ["node"], {"p": ("input_power", "mean")})
    if per_node.num_rows < 2:
        return []
    p = per_node["p"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN nodes
        spread = float(
            (np.nanmax(p) - np.nanmin(p)) / max(np.nanmean(p), 1e-9)
        )
    if spread > 0.5:
        return [("node-imbalance", {"relative_spread": spread})]
    return []


def _synthetic_power(rng, n, n_nodes, n_gpus, level):
    from repro.columnar.table import ColumnTable

    cols = {
        "timestamp": np.arange(n, dtype=np.float64) * 15.0,
        "node": rng.integers(0, n_nodes, n),
        "input_power": rng.gamma(2.0, 300.0, n),
    }
    cols["input_power"][rng.random(n) < 0.1] = np.nan
    for g in range(n_gpus):
        col = rng.normal(level, level / 3.0, n)
        col[rng.random(n) < 0.15] = np.nan
        cols[f"gpu{g}_power"] = col
    return ColumnTable(cols)


class TestDiagnosisMatchesSpec:
    """The one-pass idle-GPU means and the ``bucket_reduce`` imbalance
    rule give the same findings as per-column ``np.nanmean`` and a full
    ``group_by_agg``, evidence floats equal under ``repr``."""

    @staticmethod
    def _check(dash, power):
        from repro.apps.ua_dashboard import JobOverview
        from repro.columnar.table import ColumnTable
        from repro.telemetry.schema import EventBatch

        empty = ColumnTable({})
        overview = JobOverview(
            dash.allocation.jobs[0], power, EventBatch.empty(), empty, empty
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = dash._check_idle_gpus(overview) + dash._check_node_imbalance(
                overview
            )
        want = _reference_idle_gpus(dash, power) + _reference_node_imbalance(
            power
        )
        assert [(f.code, repr(f.evidence)) for f in got] == [
            (code, repr(evidence)) for code, evidence in want
        ]
        return got

    def test_real_job_slices(self, dashboard, deployment):
        rows = 0
        for job in deployment["allocation"].jobs[:12]:
            power = dashboard.job_overview(job.job_id).power
            self._check(dashboard, power)
            rows += power.num_rows
        assert rows

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 7, 130, 20_000])
    def test_nan_laden_tables(self, dashboard, seed, n):
        rng = np.random.default_rng(seed)
        level = 60.0 if seed % 2 else 400.0  # idle and busy GPUs
        self._check(dashboard, _synthetic_power(rng, n, 5, 4, level))

    def test_single_node(self, dashboard):
        rng = np.random.default_rng(1)
        power = _synthetic_power(rng, 50, 1, 2, 50.0)
        found = self._check(dashboard, power)
        assert [f.code for f in found] == ["idle-gpus"]

    def test_all_nan_gpu_column(self, dashboard):
        rng = np.random.default_rng(2)
        power = _synthetic_power(rng, 64, 3, 3, 50.0)
        power = power.with_column("gpu1_power", np.full(64, np.nan))
        found = self._check(dashboard, power)
        assert "idle-gpus" not in [f.code for f in found]  # NaN mean

    def test_all_nan_node(self, dashboard):
        rng = np.random.default_rng(4)
        power = _synthetic_power(rng, 90, 3, 1, 50.0)
        watts = power["input_power"].copy()
        watts[power["node"] == 0] = np.nan
        self._check(dashboard, power.with_column("input_power", watts))


class TestFrameworkHealth:
    """framework_health: the dashboard diagnosing the ODA itself."""

    @staticmethod
    def _lake_with_health(rows):
        import numpy as np

        from repro.columnar.table import ColumnTable
        from repro.storage.lake import TimeSeriesLake

        lake = TimeSeriesLake()
        n = len(rows["timestamp"])
        table = ColumnTable(
            {k: np.asarray(v, dtype=np.float64) for k, v in rows.items()}
            | {"node": np.zeros(n)}
        )
        lake.ingest("oda_health.silver", table)
        return lake

    def test_no_telemetry_warns(self, deployment):
        from repro.storage.lake import TimeSeriesLake

        dash = UserAssistanceDashboard(
            TimeSeriesLake(), deployment["allocation"]
        )
        (finding,) = dash.framework_health()
        assert finding.code == "obs-no-telemetry"
        assert finding.severity == "warning"

    def test_retention_loss_is_critical(self, deployment):
        lake = self._lake_with_health(
            {
                "timestamp": [0.0, 60.0],
                "oda.skipped_by_retention": [0.0, 12.0],
                "oda.gold_rows": [8.0, 8.0],
            }
        )
        dash = UserAssistanceDashboard(lake, deployment["allocation"])
        codes = {f.code: f for f in dash.framework_health()}
        assert "obs-data-loss" in codes
        assert codes["obs-data-loss"].severity == "critical"
        assert codes["obs-data-loss"].evidence["skipped_records"] == 12.0

    def test_stalled_refinement_warns(self, deployment):
        lake = self._lake_with_health(
            {
                "timestamp": [0.0, 60.0],
                "oda.skipped_by_retention": [0.0, 0.0],
                "oda.gold_rows": [0.0, 0.0],
            }
        )
        dash = UserAssistanceDashboard(lake, deployment["allocation"])
        codes = {f.code for f in dash.framework_health()}
        assert "refinement-stalled" in codes
        assert "pipeline-healthy" not in codes

    def test_healthy_pipeline_reports_info(self, deployment):
        lake = self._lake_with_health(
            {
                "timestamp": [0.0, 60.0],
                "oda.skipped_by_retention": [0.0, 0.0],
                "oda.gold_rows": [8.0, 8.0],
                "oda.silver_rows": [64.0, 64.0],
            }
        )
        dash = UserAssistanceDashboard(lake, deployment["allocation"])
        (finding,) = dash.framework_health()
        assert finding.code == "pipeline-healthy"
        assert finding.severity == "info"
        assert finding.evidence["windows_observed"] == 2.0
        assert finding.evidence["last_silver_rows"] == 64.0


class TestLogSearch:
    def test_search_job_logs(self, dashboard, deployment):
        from repro.storage import LogStore
        from repro.telemetry.schema import EventBatch

        store = LogStore(deployment["syslog_templates"])
        for batch in deployment["events"]:
            store.ingest(batch)
        dashboard.attach_log_store(store)
        job = job_in_first_hour(deployment)
        hits = dashboard.search_job_logs(job.job_id, "kernel")
        for doc in hits:
            assert doc.node in job.nodes.tolist()
            assert job.start <= doc.timestamp < job.end
            assert "kernel" in doc.message.lower()

    def test_search_requires_store(self, dashboard, deployment):
        job = job_in_first_hour(deployment)
        dashboard.log_store = None
        with pytest.raises(RuntimeError):
            dashboard.search_job_logs(job.job_id, "kernel")


class TestManualBaseline:
    def test_manual_lookup_touches_more_rows(self, dashboard, deployment):
        """The integrated dashboard reads orders of magnitude fewer rows
        than scanning each raw system (the Fig. 6 efficiency claim)."""
        job = job_in_first_hour(deployment)
        bronze = {
            "power": deployment["tiers"].scan_ocean("power.bronze"),
        }
        overview, rows_touched = dashboard.manual_lookup(job.job_id, bronze)
        dashboard_rows = (
            overview.power.num_rows + overview.io.num_rows
            + overview.fabric.num_rows
        )
        assert rows_touched > 10 * dashboard_rows
