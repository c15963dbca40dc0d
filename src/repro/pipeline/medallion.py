"""Concrete Bronze/Silver/Gold stages for the telemetry streams (Fig. 4b).

The paper's anatomy, implemented:

* **Bronze** — raw observations standardized into the tabular long
  format: one row per (timestamp, component, sensor, value).
* **Silver** — aggregated "over designated time intervals (e.g., every
  15 seconds)", pivoted into wide per-(bucket, node) rows, and
  contextualized by joining job-allocation information.  This is the
  expensive shuffle stage the paper amortizes by moving it upstream.
* **Gold** — analysis-ready artifacts: per-job power profiles and job
  summaries used by LVA (Fig. 8) and the classifier (Fig. 10).

:class:`MedallionPipeline` runs the chain and accounts rows/bytes/time
per stage so the Fig. 4b bench can print the refinement funnel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.columnar.table import ColumnTable
from repro.pipeline.ops import group_by_agg, pivot
from repro.telemetry.jobs import AllocationTable
from repro.telemetry.schema import ObservationBatch, SensorCatalog
from repro.util.timeseries import bucket_indices

__all__ = [
    "StageStats",
    "bronze_standardize",
    "silver_aggregate",
    "gold_job_profiles",
    "gold_job_summary",
    "MedallionPipeline",
]


def bronze_standardize(batches: list[ObservationBatch]) -> ColumnTable:
    """Raw observation batches -> the Bronze long-format table."""
    merged = ObservationBatch.concat(batches)
    return ColumnTable(
        {
            "timestamp": merged.timestamps,
            "component_id": merged.component_ids,
            "sensor_id": merged.sensor_ids,
            "value": merged.values,
        }
    )


def _attach_job_ids(
    wide: ColumnTable, allocation: AllocationTable
) -> ColumnTable:
    """Add a ``job_id`` column to a (timestamp, node) wide table."""
    nodes = wide["node"].astype(np.int32)
    times = wide["timestamp"].astype(np.float64)
    uniq_nodes = np.unique(nodes)
    uniq_times = np.unique(times)
    _, _, jid = allocation.utilization(uniq_nodes, uniq_times)
    node_pos = np.searchsorted(uniq_nodes, nodes)
    time_pos = np.searchsorted(uniq_times, times)
    return wide.with_column("job_id", jid[node_pos, time_pos])


def silver_aggregate(
    bronze: ColumnTable,
    catalog: SensorCatalog,
    interval: float = 15.0,
    allocation: AllocationTable | None = None,
) -> ColumnTable:
    """Bronze long format -> Silver wide format.

    GROUP BY (time bucket, component, sensor) mean, PIVOT sensors into
    columns named from the catalog, then JOIN job context.
    """
    if bronze.num_rows == 0:
        return ColumnTable({})
    bucket = bucket_indices(bronze["timestamp"], interval) * interval
    long = ColumnTable(
        {
            "timestamp": bucket,
            "node": bronze["component_id"],
            "sensor_id": bronze["sensor_id"],
            "value": bronze["value"],
        }
    )
    wide = pivot(
        long,
        index=["timestamp", "node"],
        column_key="sensor_id",
        value="value",
        agg="mean",
        name_fn=lambda sid: catalog.spec(int(sid)).name,
    )
    if allocation is not None:
        wide = _attach_job_ids(wide, allocation)
    return wide


def gold_job_profiles(
    silver: ColumnTable, power_column: str = "input_power"
) -> ColumnTable:
    """Silver -> per-(job, time) power profile rows (idle rows dropped).

    Streams without the power column (e.g. I/O silver) yield an empty
    Gold table — only the power stream feeds profiles.
    """
    if (
        silver.num_rows == 0
        or "job_id" not in silver
        or power_column not in silver
    ):
        return ColumnTable({})
    allocated = silver.filter(silver["job_id"] >= 0)
    if allocated.num_rows == 0:
        return ColumnTable({})
    return group_by_agg(
        allocated,
        ["job_id", "timestamp"],
        {
            "power_w": (power_column, "sum"),
            "n_nodes": (power_column, "count"),
        },
    )


def gold_job_summary(profiles: ColumnTable, interval: float = 15.0) -> ColumnTable:
    """Per-job energy/power summary from profile rows."""
    if profiles.num_rows == 0:
        return ColumnTable({})
    summary = group_by_agg(
        profiles,
        ["job_id"],
        {
            "mean_power_w": ("power_w", "mean"),
            "max_power_w": ("power_w", "max"),
            "samples": ("power_w", "count"),
            "mean_nodes": ("n_nodes", "mean"),
        },
    )
    energy = summary["mean_power_w"] * summary["samples"] * interval
    return summary.with_column("energy_j", energy)


@dataclass
class StageStats:
    """Cumulative cost accounting for one pipeline stage."""

    name: str
    rows_in: int = 0
    rows_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    wall_s: float = 0.0
    invocations: int = 0

    @property
    def row_reduction(self) -> float:
        """rows_in / rows_out (inf when the stage empties its input)."""
        return self.rows_in / self.rows_out if self.rows_out else float("inf")

    @property
    def byte_reduction(self) -> float:
        """bytes_in / bytes_out (inf when output is empty)."""
        return self.bytes_in / self.bytes_out if self.bytes_out else float("inf")

    def record(
        self, rows_in: int, rows_out: int, bytes_in: int, bytes_out: int, wall: float
    ) -> None:
        """Accumulate one invocation."""
        self.rows_in += rows_in
        self.rows_out += rows_out
        self.bytes_in += bytes_in
        self.bytes_out += bytes_out
        self.wall_s += wall
        self.invocations += 1


@dataclass
class MedallionPipeline:
    """Bronze -> Silver -> Gold refinement with per-stage accounting.

    Parameters
    ----------
    catalog:
        Sensor catalog of the source stream.
    allocation:
        Job oracle for Silver contextualization.
    interval:
        Silver aggregation interval (paper's example: 15 s).
    """

    catalog: SensorCatalog
    allocation: AllocationTable | None = None
    interval: float = 15.0
    stats: dict[str, StageStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("bronze", "silver", "gold"):
            self.stats[name] = StageStats(name)

    def _timed(
        self, name: str, table_in_rows: int, bytes_in: int, fn
    ) -> ColumnTable:
        from repro.obs import METRICS, TRACER

        with TRACER.span(f"refine.{name}") as span:
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
            if span is not None:
                span.set(rows_in=table_in_rows, rows_out=out.num_rows)
        self.stats[name].record(
            table_in_rows, out.num_rows, bytes_in, out.nbytes, wall,
        )
        METRICS.observe(f"refine.{name}", wall)
        METRICS.observe("refine.rows_per_window", out.num_rows, stage=name)
        return out

    def process(
        self, batches: list[ObservationBatch]
    ) -> dict[str, ColumnTable]:
        """Run one micro-batch through all three stages."""
        raw_rows = sum(len(b) for b in batches)
        raw_bytes = sum(b.nbytes_raw for b in batches)
        bronze = self._timed(
            "bronze", raw_rows, raw_bytes, lambda: bronze_standardize(batches)
        )
        silver = self._timed(
            "silver",
            bronze.num_rows,
            bronze.nbytes,
            lambda: silver_aggregate(
                bronze, self.catalog, self.interval, self.allocation
            ),
        )
        gold = self._timed(
            "gold",
            silver.num_rows,
            silver.nbytes,
            lambda: gold_job_profiles(silver),
        )
        return {"bronze": bronze, "silver": silver, "gold": gold}

    def funnel(self) -> list[StageStats]:
        """Stage stats in refinement order (the Fig. 4b rows)."""
        return [self.stats[n] for n in ("bronze", "silver", "gold")]
