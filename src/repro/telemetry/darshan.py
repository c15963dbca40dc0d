"""Darshan-style per-job I/O characterization (§IV-B).

"leveraging per-job instrumentation based on technologies such as
Darshan has been successfully employed" — instead of sampling I/O
continuously, a lightweight runtime library summarizes each job's I/O
behaviour into one compact record at job end.  The paper's group
released exactly such datasets publicly ([50], [51]).

:class:`DarshanCollector` synthesizes those records deterministically
from the job's archetype and the same storage model the continuous
counters use, so the two instrumentation paths are consistent — the
cross-check the R&D analyses rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.columnar.table import ColumnTable
from repro.telemetry.jobs import AllocationTable, JobSpec
from repro.telemetry.storage_io import CLIENT_LINK_BPS, WRITE_FRACTION
from repro.telemetry.workloads import get_archetype
from repro.util.noise import normal_from_index, uniform_from_index

__all__ = ["DarshanRecord", "DarshanCollector"]


@dataclass(frozen=True)
class DarshanRecord:
    """One job's I/O summary (the per-job log record)."""

    job_id: int
    bytes_read: float
    bytes_written: float
    files_opened: int
    write_fraction: float
    #: Fraction of accesses per size bucket: up to 4 KiB, 64 KiB, 1 MiB,
    #: 16 MiB, and larger.
    access_histogram: tuple[float, ...]
    peak_bandwidth_bps: float

    @property
    def total_bytes(self) -> float:
        """Total bytes moved by the job."""
        return self.bytes_read + self.bytes_written


class DarshanCollector:
    """Generates per-job I/O summaries for a schedule."""

    def __init__(self, allocation: AllocationTable, seed: int = 0) -> None:
        self.allocation = allocation
        self.seed = int(seed)

    def _record(self, job: JobSpec) -> DarshanRecord:
        arch = get_archetype(job.archetype)
        idx = np.array([job.job_id], dtype=np.uint64)
        jitter = 1.0 + 0.1 * float(normal_from_index(self.seed, 300, idx)[0])
        mean_bps = arch.io_intensity * CLIENT_LINK_BPS * max(jitter, 0.1)
        total = mean_bps * job.duration * job.n_nodes
        written = total * WRITE_FRACTION
        read = total - written
        # Files opened scale with nodes (per-rank logs + shared datasets).
        u = float(uniform_from_index(self.seed, 301, idx)[0])
        files = int(job.n_nodes * (2 + 30 * arch.io_intensity) * (0.5 + u))
        # Access-size mix: I/O-heavy codes do large sequential accesses;
        # everything else skews small.
        if arch.io_intensity > 0.3:
            hist = (0.05, 0.10, 0.15, 0.40, 0.30)
        elif arch.io_intensity > 0.1:
            hist = (0.15, 0.25, 0.30, 0.20, 0.10)
        else:
            hist = (0.50, 0.30, 0.15, 0.04, 0.01)
        burst = 1.0 + 2.0 * float(uniform_from_index(self.seed, 302, idx)[0])
        return DarshanRecord(
            job_id=job.job_id,
            bytes_read=read,
            bytes_written=written,
            files_opened=max(files, 1),
            write_fraction=WRITE_FRACTION,
            access_histogram=hist,
            peak_bandwidth_bps=mean_bps * burst * job.n_nodes,
        )

    def collect(self, t0: float, t1: float) -> list[DarshanRecord]:
        """Records for jobs that *ended* within ``[t0, t1)`` — Darshan
        logs materialize at job completion."""
        return [
            self._record(job)
            for job in self.allocation.jobs
            if t0 <= job.end < t1
        ]

    def collect_all(self) -> list[DarshanRecord]:
        """Records for every job in the schedule."""
        return [self._record(job) for job in self.allocation.jobs]

    def to_table(self, records: list[DarshanRecord]) -> ColumnTable:
        """Records as an analysis-ready table (the released-dataset shape)."""
        if not records:
            return ColumnTable({})
        jobs = {r.job_id: self.allocation.job(r.job_id) for r in records}
        return ColumnTable(
            {
                "job_id": np.array([r.job_id for r in records], dtype=float),
                "timestamp": np.array(
                    [jobs[r.job_id].end for r in records]
                ),
                "archetype": [jobs[r.job_id].archetype for r in records],
                "n_nodes": np.array(
                    [jobs[r.job_id].n_nodes for r in records], dtype=float
                ),
                "bytes_read": np.array([r.bytes_read for r in records]),
                "bytes_written": np.array([r.bytes_written for r in records]),
                "files_opened": np.array(
                    [r.files_opened for r in records], dtype=float
                ),
                "peak_bw_bps": np.array(
                    [r.peak_bandwidth_bps for r in records]
                ),
                "small_access_frac": np.array(
                    [r.access_histogram[0] for r in records]
                ),
            }
        )
