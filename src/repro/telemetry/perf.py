"""GPU/CPU performance-counter stream.

The "Compute: perf counters" row of Fig. 3 sits at **L0 for every
consumer** — collected raw, not yet operationalized — and it is the
single largest contributor to the ingest firehose: tens of counters per
accelerator at 1 Hz across the fleet.  This is the "inundation" of the
paper's title: most of the daily terabytes are this stream, stored
frozen until an exploration campaign reaches it.

Counters are modelled as utilization-coupled rates (occupancy, issued
flops, memory bandwidth, cache hits, ...) with per-counter scale factors
and deterministic noise; their information content is deliberately
redundant with utilization — the very reason a Bronze->Silver campaign
can compact them so hard once someone invests in it.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import SensorCatalog, SensorSpec
from repro.telemetry.sources import NodeGridSource
from repro.util.noise import normal_from_index, normal_from_index_tags

__all__ = ["PerfCounterSource", "COUNTERS_PER_GPU"]

#: Counter channels collected per accelerator (occupancy, flops issued,
#: memory bandwidth, cache hit rates, stall reasons, ...).
COUNTERS_PER_GPU = 20
SAMPLE_PERIOD_S = 1.0

_COUNTER_NAMES = [
    "occupancy_pct", "flops_issued", "mem_bw_bytes", "l2_hit_pct",
    "lds_util_pct", "valu_busy_pct", "salu_busy_pct", "fetch_stall_pct",
    "write_stall_pct", "wavefronts", "kernel_launches", "pcie_rx_bytes",
    "pcie_tx_bytes", "xgmi_bytes", "power_violations", "clk_mhz",
    "mem_clk_mhz", "temp_hotspot_c", "ecc_corrected", "page_faults",
]


class PerfCounterSource(NodeGridSource):
    """Deterministic per-GPU performance-counter stream."""

    name = "perf_counters"
    loss_tag = 4000
    sample_period_s = SAMPLE_PERIOD_S

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int = 0,
        nodes: np.ndarray | None = None,
        loss_rate: float = 0.002,
    ) -> None:
        super().__init__(machine, allocation, seed, nodes, loss_rate)
        specs = []
        for g in range(machine.gpus_per_node):
            for counter in _COUNTER_NAMES[:COUNTERS_PER_GPU]:
                specs.append(
                    SensorSpec(
                        f"gpu{g}_{counter}", "count", SAMPLE_PERIOD_S, "node",
                        f"GPU {g} perf counter: {counter}", loss_rate,
                    )
                )
        self._catalog = SensorCatalog(specs)
        # Per-counter deterministic scale factors (decades apart).
        n_channels = len(specs)
        exponents = normal_from_index(
            self.seed, 400, np.arange(n_channels, dtype=np.uint64)
        )
        self._scales = 10.0 ** (2.0 + 2.0 * np.abs(exponents))

    def _grids(
        self, times: np.ndarray, idx: np.ndarray
    ) -> dict[str, np.ndarray]:
        gpu_u, _, _ = self.allocation.utilization(self.nodes, times)
        # Counter value = scale * utilization * (1 + noise); the
        # redundancy across channels is intentional (see module doc).
        return {
            name: self._scales[sid] * np.maximum(
                gpu_u * (1.0 + 0.1 * normal_from_index(self.seed, 500 + sid, idx)),
                0.0,
            )
            for sid, name in enumerate(self._catalog.names())
        }

    def _stacked(
        self, times: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """All channels in one noise pass, skipping idle cells."""
        gpu_u, _, _ = self.allocation.utilization(self.nodes, times)
        sids = np.arange(len(self._catalog), dtype=np.uint64)
        active = gpu_u > 0.0
        if active.all():
            # In-place pipeline over the one noise cube: each step uses
            # the same operands (commuted where needed — IEEE multiply is
            # bitwise commutative) and order as the reference expression
            # scale * max(u * (1 + 0.1 * n), 0), so bits are identical.
            values = normal_from_index_tags(self.seed, 500 + sids, idx)
            values *= 0.1
            values += 1.0
            values *= gpu_u[None, :, :]
            np.maximum(values, 0.0, out=values)
            values *= self._scales[:, None, None]
        else:
            # Idle cells are exactly 0.0 regardless of noise (|noise| < 1,
            # so gpu_u * (1 + noise) is +0.0 there) — draw noise only on
            # the active cells and leave the rest zero-filled.
            values = np.zeros((sids.size,) + gpu_u.shape)
            if active.any():
                cells = normal_from_index_tags(
                    self.seed, 500 + sids, idx[active]
                )
                cells *= 0.1
                cells += 1.0
                cells *= gpu_u[active][None, :]
                np.maximum(cells, 0.0, out=cells)
                cells *= self._scales[:, None]
                values[:, active] = cells
        return sids, values
