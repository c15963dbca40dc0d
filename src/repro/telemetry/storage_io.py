"""Parallel-filesystem (Lustre-style) client counters.

The "Storage client" row of Fig. 3: each compute node reports read/write
bandwidth and metadata-operation counters at a 10-second cadence.  Traffic
is driven by the running job's archetype ``io_intensity`` with heavy-tailed
(lognormal) burstiness — checkpoint storms are what make this stream hard
to summarize, which is exactly the Bronze->Silver pressure the paper
describes.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import SensorCatalog, SensorSpec
from repro.telemetry.sources import NodeGridSource
from repro.telemetry.workloads import archetype_lookup
from repro.util.noise import normal_from_index

__all__ = ["StorageIOSource"]

#: Reference client link bandwidth (bytes/s) that io_intensity scales.
CLIENT_LINK_BPS = 10e9
SAMPLE_PERIOD_S = 10.0
#: Lognormal burstiness of I/O bandwidth.
BURST_SIGMA = 1.2
#: Fraction of job I/O that is writes (checkpoint-dominated).
WRITE_FRACTION = 0.7


class StorageIOSource(NodeGridSource):
    """Deterministic per-node filesystem-client counter stream."""

    name = "storage_io"
    loss_tag = 2000
    sample_period_s = SAMPLE_PERIOD_S

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int = 0,
        nodes: np.ndarray | None = None,
        loss_rate: float = 0.005,
    ) -> None:
        super().__init__(machine, allocation, seed, nodes, loss_rate)
        self._intensity = archetype_lookup(allocation, "io_intensity")
        self._catalog = SensorCatalog(
            [
                SensorSpec(
                    "fs_read_bps", "B/s", SAMPLE_PERIOD_S, "node",
                    "filesystem client read bandwidth", loss_rate,
                ),
                SensorSpec(
                    "fs_write_bps", "B/s", SAMPLE_PERIOD_S, "node",
                    "filesystem client write bandwidth", loss_rate,
                ),
                SensorSpec(
                    "fs_metadata_ops", "ops/s", SAMPLE_PERIOD_S, "node",
                    "metadata operations per second", loss_rate,
                ),
            ]
        )

    def _grids(
        self, times: np.ndarray, idx: np.ndarray
    ) -> dict[str, np.ndarray]:
        _, _, jid = self.allocation.utilization(self.nodes, times)
        intensity = np.where(jid >= 0, self._intensity[np.maximum(jid, 0)], 0.0)
        burst = np.exp(
            BURST_SIGMA * normal_from_index(self.seed, 60, idx)
            - 0.5 * BURST_SIGMA**2  # mean-one lognormal
        )
        total_bps = intensity * CLIENT_LINK_BPS * burst
        write_bps = total_bps * WRITE_FRACTION
        read_bps = total_bps - write_bps
        # Metadata ops track bandwidth weakly, plus a floor of stat traffic.
        md_ops = 2.0 + total_bps / 50e6
        return {
            "fs_read_bps": read_bps,
            "fs_write_bps": write_bps,
            "fs_metadata_ops": md_ops,
        }
