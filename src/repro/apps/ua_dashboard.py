"""User Assistance dashboard backend (Fig. 6).

"These dashboards compile data from various sources, including compute,
storage, and system logs, all integrated with job node allocation details
for a comprehensive overview.  This type of compilation replaces the old
method of manually checking different systems."

The service answers one question — *what happened to this job?* — by
joining every refined stream against the job's node set and lifetime,
then running diagnosis rules over the joined view.  The Fig. 6 bench
contrasts this with the "old method": sequential raw-stream scans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.columnar.predicate import Col
from repro.columnar.table import ColumnTable
from repro.storage.lake import TimeSeriesLake
from repro.telemetry.jobs import AllocationTable, JobSpec
from repro.telemetry.schema import EventBatch
from repro.util.timeseries import bucket_reduce

__all__ = ["Finding", "JobOverview", "UserAssistanceDashboard"]


@dataclass(frozen=True)
class Finding:
    """One diagnosis finding with supporting evidence."""

    code: str
    severity: str  # "info" | "warning" | "critical"
    message: str
    evidence: dict[str, float] = field(default_factory=dict)


@dataclass
class JobOverview:
    """The compiled per-job view the dashboard renders."""

    job: JobSpec
    power: ColumnTable          # per-(bucket, node) silver rows of the job
    events: EventBatch          # syslog on the job's nodes during its run
    io: ColumnTable             # storage-client silver rows
    fabric: ColumnTable         # interconnect silver rows
    findings: list[Finding] = field(default_factory=list)
    #: What the compile actually cost on the read plane (segment/group
    #: counts, cache hits and misses).
    scan_stats: dict = field(default_factory=dict)


class UserAssistanceDashboard:
    """Joins refined streams per job and runs diagnosis rules.

    Parameters
    ----------
    lake:
        LAKE tier holding the silver tables.
    allocation:
        Job metadata oracle.
    silver_tables:
        Names of the silver tables per stream in the lake.
    """

    #: Diagnosis thresholds (fractions of nominal).
    IDLE_GPU_POWER_W = 150.0
    STALL_WARNING = 0.15
    ERROR_BURST_COUNT = 5

    def __init__(
        self,
        lake: TimeSeriesLake,
        allocation: AllocationTable,
        power_table: str = "power.silver",
        io_table: str = "storage_io.silver",
        fabric_table: str = "interconnect.silver",
    ) -> None:
        self.lake = lake
        self.allocation = allocation
        self.power_table = power_table
        self.io_table = io_table
        self.fabric_table = fabric_table
        self._event_log: list[EventBatch] = []
        self.log_store = None  # optional LogStore for term search
        self.tickets_resolved = 0

    def attach_log_store(self, log_store) -> None:
        """Attach a :class:`repro.storage.LogStore` so tickets can be
        investigated by free-text search over rendered log lines."""
        self.log_store = log_store

    def search_job_logs(self, job_id: int, terms: str, limit: int = 50):
        """Term search over the job's nodes and lifetime (requires an
        attached log store)."""
        if self.log_store is None:
            raise RuntimeError("no log store attached")
        job = self.allocation.job(job_id)
        hits = []
        for node in job.nodes.tolist():
            hits.extend(
                self.log_store.search(
                    terms, node=node, t0=job.start, t1=job.end, limit=limit
                )
            )
        hits.sort(key=lambda d: d.timestamp)
        return hits[:limit]

    def feed_events(self, events: EventBatch) -> None:
        """Append a syslog batch to the dashboard's event index."""
        if len(events):
            self._event_log.append(events)

    # -- the one-stop query -----------------------------------------------------

    def _job_slice(self, table_name: str, job: JobSpec) -> ColumnTable:
        out = self.lake.query(
            table_name,
            job.start,
            job.end,
            predicate=Col("node").isin(job.nodes.tolist()),
        )
        return out

    #: Read-plane counters snapshotted around each overview compile.
    _SCAN_COUNTERS = (
        "query.segments_scanned",
        "query.segments_pruned",
        "query.groups_pruned",
        "query.groups_decoded",
        "query.cache_hits",
        "query.cache_misses",
    )

    def job_overview(self, job_id: int) -> JobOverview:
        """Compile the integrated per-job view and diagnose it."""
        from repro.obs import METRICS

        job = self.allocation.job(job_id)
        before = {n: METRICS.counter(n) for n in self._SCAN_COUNTERS}
        power = self._job_slice(self.power_table, job)
        io = self._job_slice(self.io_table, job)
        fabric = self._job_slice(self.fabric_table, job)
        scan_stats = {
            n: METRICS.counter(n) - before[n] for n in self._SCAN_COUNTERS
        }
        events = self._events_for(job)
        overview = JobOverview(
            job, power, events, io, fabric, scan_stats=scan_stats
        )
        overview.findings = self._diagnose(overview)
        self.tickets_resolved += 1
        return overview

    def _events_for(self, job: JobSpec) -> EventBatch:
        nodes = set(job.nodes.tolist())
        pieces = []
        for batch in self._event_log:
            mask = (
                (batch.timestamps >= job.start)
                & (batch.timestamps < job.end)
                & np.isin(batch.component_ids, job.nodes)
            )
            if mask.any():
                pieces.append(
                    EventBatch(
                        batch.timestamps[mask],
                        batch.component_ids[mask],
                        batch.severities[mask],
                        batch.message_ids[mask],
                    )
                )
        return EventBatch.concat(pieces)

    # -- diagnosis rules -----------------------------------------------------------

    def _diagnose(self, overview: JobOverview) -> list[Finding]:
        findings: list[Finding] = []
        findings.extend(self._check_idle_gpus(overview))
        findings.extend(self._check_fabric_stalls(overview))
        findings.extend(self._check_error_bursts(overview))
        findings.extend(self._check_node_imbalance(overview))
        return findings

    def _check_idle_gpus(self, overview: JobOverview) -> list[Finding]:
        power = overview.power
        gpu_cols = [c for c in power.column_names if c.startswith("gpu")
                    and c.endswith("_power")]
        if not gpu_cols or power.num_rows == 0:
            return []
        # Per-column NaN-aware means in one pass.  Each column is a
        # contiguous row of the block, so the row sums are the same
        # pairwise sums np.nanmean takes per column: equal float bits.
        block = np.stack([power[c] for c in gpu_cols])
        nan = np.isnan(block)
        block[nan] = 0.0
        with np.errstate(invalid="ignore"):  # all-NaN column -> NaN
            means = block.sum(axis=1) / (~nan).sum(axis=1)
        mean_gpu = float(np.mean(means))
        if mean_gpu < self.IDLE_GPU_POWER_W:
            return [
                Finding(
                    "idle-gpus",
                    "warning",
                    "GPUs are nearly idle: job may be CPU-bound, stalled, "
                    "or wasting its allocation",
                    {"mean_gpu_power_w": mean_gpu},
                )
            ]
        return []

    def _check_fabric_stalls(self, overview: JobOverview) -> list[Finding]:
        fabric = overview.fabric
        if fabric.num_rows == 0 or "nic_stall_frac" not in fabric:
            return []
        stall = float(np.nanmean(fabric["nic_stall_frac"]))
        if stall > self.STALL_WARNING:
            return [
                Finding(
                    "fabric-congestion",
                    "warning",
                    "job nodes spend significant time stalled on fabric "
                    "credits: check placement and communication pattern",
                    {"mean_stall_frac": stall},
                )
            ]
        return []

    def _check_error_bursts(self, overview: JobOverview) -> list[Finding]:
        errors = overview.events.at_least("error")
        if len(errors) >= self.ERROR_BURST_COUNT:
            worst = np.bincount(
                errors.component_ids - errors.component_ids.min()
            ).argmax() + errors.component_ids.min()
            return [
                Finding(
                    "error-burst",
                    "critical",
                    "error-level system events on job nodes during the run; "
                    "likely hardware or system software fault",
                    {"n_errors": float(len(errors)), "worst_node": float(worst)},
                )
            ]
        return []

    def _check_node_imbalance(self, overview: JobOverview) -> list[Finding]:
        power = overview.power
        if power.num_rows == 0 or "input_power" not in power:
            return []
        _, p = bucket_reduce(power["node"], power["input_power"], "mean")
        if p.size < 2:
            return []
        spread = float((np.nanmax(p) - np.nanmin(p)) / max(np.nanmean(p), 1e-9))
        if spread > 0.5:
            return [
                Finding(
                    "node-imbalance",
                    "info",
                    "large node-to-node power spread: possible load "
                    "imbalance or straggler node",
                    {"relative_spread": spread},
                )
            ]
        return []

    # -- fleet-wide summaries ----------------------------------------------------------

    def fleet_power_summary(
        self, tiers, rollup: str = "power.silver.node_power"
    ) -> ColumnTable:
        """Fleet-wide per-node power panel from a materialized rollup.

        The dashboard's landing view ("which nodes run hot?") spans the
        whole archive, which a scan would pay for on every page load.
        This serves it from the lifecycle manager's incrementally
        maintained Gold rollup instead: columns ``node``,
        ``mean_power_w``, ``peak_power_w``, ``samples``, straight from
        the precomputed partials.
        """
        agg = tiers.query_rollup(rollup)
        return ColumnTable(
            {
                "node": agg["node"],
                "mean_power_w": agg["mean"],
                "peak_power_w": agg["max"],
                "samples": agg["count"],
            }
        )

    # -- the ODA's own health ("ODA for the ODA") --------------------------------------

    def framework_health(
        self,
        t0: float | None = None,
        t1: float | None = None,
        health_table: str = "oda_health.silver",
    ) -> list[Finding]:
        """Diagnose the framework itself from its self-telemetry stream.

        Reads the ``oda_health.silver`` dataset that
        ``DataPlaneOptions.self_telemetry`` refines through the normal
        medallion chain, and applies the same rule style the dashboard
        uses on jobs — so the operator's "is the ODA healthy?" question
        is answered by the ODA's own pipeline.
        """
        health = self.lake.query(health_table, t0, t1)
        if health.num_rows == 0:
            return [
                Finding(
                    "obs-no-telemetry",
                    "warning",
                    "no self-telemetry rows in the window: enable "
                    "DataPlaneOptions.self_telemetry or check the "
                    "oda_health refinement loop",
                    {"rows": 0.0},
                )
            ]
        findings: list[Finding] = []
        if "oda.skipped_by_retention" in health:
            skipped = float(np.nanmax(health["oda.skipped_by_retention"]))
            if skipped > 0:
                findings.append(
                    Finding(
                        "obs-data-loss",
                        "critical",
                        "consumers skipped retention-trimmed records: the "
                        "pipeline is falling behind the STREAM horizon",
                        {"skipped_records": skipped},
                    )
                )
        if "oda.gold_rows" in health:
            gold = health["oda.gold_rows"]
            if float(np.nanmax(gold)) == 0.0:
                findings.append(
                    Finding(
                        "refinement-stalled",
                        "warning",
                        "no Gold rows in any observed window: the power "
                        "refinement chain is producing nothing",
                        {"windows_observed": float(health.num_rows)},
                    )
                )
        if not findings:
            last = health.num_rows - 1
            evidence = {"windows_observed": float(health.num_rows)}
            if "oda.silver_rows" in health:
                evidence["last_silver_rows"] = float(
                    health["oda.silver_rows"][last]
                )
            findings.append(
                Finding(
                    "pipeline-healthy",
                    "info",
                    "self-telemetry shows refinement progressing with no "
                    "retention loss",
                    evidence,
                )
            )
        return findings

    # -- the "old method" baseline ----------------------------------------------------

    def manual_lookup(self, job_id: int, bronze_tables: dict[str, ColumnTable]
                      ) -> tuple[JobOverview, int]:
        """Simulate the pre-dashboard workflow: sequentially scan each raw
        (Bronze, long-format) table and filter in Python-visible steps.

        Returns the same overview plus the number of raw rows touched —
        the cost the integrated dashboard avoids.
        """
        job = self.allocation.job(job_id)
        rows_touched = 0
        for table in bronze_tables.values():
            rows_touched += table.num_rows  # full scan per system
        overview = self.job_overview(job_id)
        return overview, rows_touched
