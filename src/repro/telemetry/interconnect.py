"""Interconnect (fabric) client counters.

The "Interconnect client" row of Fig. 3: per-node NIC injection/ejection
bandwidth and a congestion-stall fraction, at a 10-second cadence.
Traffic follows the running job's archetype ``net_intensity``; congestion
rises super-linearly with offered load, giving the downstream analyses a
signal that correlates across nodes of the same job — which is what the
UA dashboards exploit when diagnosing "slow job" tickets.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import SensorCatalog, SensorSpec
from repro.telemetry.sources import NodeGridSource
from repro.telemetry.workloads import archetype_lookup
from repro.util.noise import normal_from_index

__all__ = ["InterconnectSource"]

#: NIC injection bandwidth (bytes/s) that net_intensity scales.
NIC_BPS = 25e9
SAMPLE_PERIOD_S = 10.0


class InterconnectSource(NodeGridSource):
    """Deterministic per-node fabric counter stream."""

    name = "interconnect"
    loss_tag = 3000
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
        self._net = archetype_lookup(allocation, "net_intensity")
        self._catalog = SensorCatalog(
            [
                SensorSpec(
                    "nic_tx_bps", "B/s", SAMPLE_PERIOD_S, "node",
                    "NIC injection bandwidth", loss_rate,
                ),
                SensorSpec(
                    "nic_rx_bps", "B/s", SAMPLE_PERIOD_S, "node",
                    "NIC ejection bandwidth", loss_rate,
                ),
                SensorSpec(
                    "nic_stall_frac", "fraction", SAMPLE_PERIOD_S, "node",
                    "fraction of cycles stalled on fabric credits", loss_rate,
                ),
            ]
        )

    def _grids(
        self, times: np.ndarray, idx: np.ndarray
    ) -> dict[str, np.ndarray]:
        gpu_u, _, jid = self.allocation.utilization(self.nodes, times)
        net = np.where(jid >= 0, self._net[np.maximum(jid, 0)], 0.0)
        # Offered load tracks compute phase (communication and compute
        # interleave), with mild noise.
        wobble = 1.0 + 0.15 * normal_from_index(self.seed, 70, idx)
        offered = np.clip(net * gpu_u * wobble, 0.0, 1.0)
        tx = offered * NIC_BPS
        rx = np.clip(offered * (1.0 + 0.1 * normal_from_index(self.seed, 71, idx)), 0, 1) * NIC_BPS
        # Congestion stalls grow super-linearly with offered load.
        stall = np.clip(offered**3 * 0.5, 0.0, 1.0)
        return {"nic_tx_bps": tx, "nic_rx_bps": rx, "nic_stall_frac": stall}
