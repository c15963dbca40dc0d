"""Per-component power and thermal telemetry.

This is the dominant stream by volume on the Compass-class machine (the
paper cites ~0.5 TB/day of power profiling data for Frontier) and the raw
material for the LVA application (Fig. 8), the job power-profile classifier
(Fig. 10), and the ExaDigiT replay (Fig. 11).

Each node reports, at the machine's native cadence (1 Hz on Compass):

* ``input_power`` — node power at the rectifier output,
* ``cpu_power``, ``mem_power``, and one ``gpuN_power`` per GPU,
* ``cpu_temp`` and one ``gpuN_temp`` per GPU,
* ``coolant_return_temp`` — per-node cold-plate return temperature.

The electrical model: device power is idle + utilization x (TDP - idle)
plus multiplicative device-to-device variation (manufacturing spread) and
additive measurement noise; node input power adds a fixed overhead (fans,
NIC, board) divided by a point-of-load conversion efficiency.  Temperatures
are coolant supply + thermal resistance x power + noise.  Utilization comes
from the :class:`~repro.telemetry.jobs.AllocationTable`, so profiles carry
the archetype shapes end to end.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import SensorCatalog, SensorSpec
from repro.telemetry.sources import NodeGridSource
from repro.util.noise import normal_from_index, normal_from_index_tags

__all__ = ["PowerThermalSource"]

# Electrical/thermal constants of the node model.
GPU_IDLE_W = 90.0
CPU_IDLE_W = 60.0
MEM_IDLE_W = 40.0
MEM_ACTIVE_W = 25.0  # extra at full GPU utilization
POL_EFFICIENCY = 0.92  # point-of-load DC-DC conversion efficiency
CPU_THERMAL_R = 0.055  # degC per watt
GPU_THERMAL_R = 0.045
NODE_THERMAL_R = 0.004  # coolant return rise per node watt
MEASUREMENT_NOISE_W = 4.0
TEMP_NOISE_C = 0.3


def _build_catalog(machine: MachineConfig, loss_rate: float) -> SensorCatalog:
    period = machine.power_sample_period_s
    specs = [
        SensorSpec(
            "input_power", "W", period, "node",
            "node input power at rectifier output", loss_rate,
        ),
        SensorSpec("cpu_power", "W", period, "node", "CPU package power", loss_rate),
        SensorSpec("mem_power", "W", period, "node", "DIMM power", loss_rate),
        SensorSpec("cpu_temp", "degC", period, "node", "CPU die temperature", loss_rate),
        SensorSpec(
            "coolant_return_temp", "degC", period, "node",
            "cold-plate coolant return temperature", loss_rate,
        ),
        SensorSpec(
            "node_energy", "J", period, "node",
            "energy consumed over the sample interval", loss_rate,
        ),
        SensorSpec("fan0_speed", "rpm", period, "node",
                   "chassis fan 0 speed", loss_rate),
        SensorSpec("fan1_speed", "rpm", period, "node",
                   "chassis fan 1 speed", loss_rate),
        SensorSpec("ps0_voltage", "V", period, "node",
                   "power shelf 0 bus voltage", loss_rate),
        SensorSpec("ps1_voltage", "V", period, "node",
                   "power shelf 1 bus voltage", loss_rate),
    ]
    for g in range(machine.gpus_per_node):
        specs.append(
            SensorSpec(
                f"gpu{g}_power", "W", period, "node",
                f"GPU {g} package power", loss_rate,
            )
        )
        specs.append(
            SensorSpec(
                f"gpu{g}_temp", "degC", period, "node",
                f"GPU {g} die temperature", loss_rate,
            )
        )
        specs.append(
            SensorSpec(
                f"gpu{g}_hbm_temp", "degC", period, "node",
                f"GPU {g} HBM stack temperature", loss_rate,
            )
        )
        specs.append(
            SensorSpec(
                f"gpu{g}_util", "fraction", period, "node",
                f"GPU {g} utilization", loss_rate,
            )
        )
    return SensorCatalog(specs)


class PowerThermalSource(NodeGridSource):
    """Deterministic per-node power/thermal stream for a fleet subset.

    Parameters
    ----------
    machine:
        Fleet geometry and electrical envelope.
    allocation:
        Job oracle driving utilization.
    seed:
        Root seed; all noise is a pure function of (seed, sample index).
    nodes:
        Optional subset of node ids to emit (defaults to the whole fleet).
        Benches emit a sampled subset and extrapolate volumes.
    loss_rate:
        Fraction of samples dropped at the source, modelling the lossy
        out-of-band collection path the paper highlights (§VIII-A).
    """

    name = "power"
    loss_tag = 1000

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int = 0,
        nodes: np.ndarray | None = None,
        loss_rate: float = 0.01,
    ) -> None:
        super().__init__(machine, allocation, seed, nodes, loss_rate)
        self._catalog = _build_catalog(machine, loss_rate)
        # Per-device manufacturing spread: stable per (node, device).
        node_u64 = self.nodes.astype(np.uint64)
        self._gpu_spread = 1.0 + 0.04 * normal_from_index(
            self.seed, 101, node_u64
        )  # per-node factor; per-GPU refinement below
        self._cpu_spread = 1.0 + 0.03 * normal_from_index(self.seed, 102, node_u64)
        # Hoisted per-(node, GPU) spread columns: the exact expression the
        # per-window loop used to rebuild every emit, computed once here.
        self._gpu_spread_cols = [
            self._gpu_spread[:, None]
            * (
                1.0
                + 0.02 * normal_from_index(self.seed, 200 + g, node_u64)[:, None]
            )
            for g in range(machine.gpus_per_node)
        ]

    @property
    def sample_period_s(self) -> float:
        return self.machine.power_sample_period_s

    def node_power_matrix(
        self, t0: float, t1: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Lossless (times, node_input_power) matrix for the window.

        Shape of power matrix: ``(n_nodes, n_times)``.  Used directly by
        the digital twin and the facility source, bypassing the long
        format.
        """
        times = self.sample_times(t0, t1)
        grids = self._grids(times, self._sample_cells(times))
        return times, grids["input_power"]

    def _grids(
        self, times: np.ndarray, idx: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Every channel on the (node x time) grid, noiselessly computed
        and joined with deterministic noise keyed by ``idx``."""
        m = self.machine
        gpu_u, cpu_u, _ = self.allocation.utilization(self.nodes, times)

        # One batched hash pass for every grid-shaped noise channel; row i
        # is bit-identical to normal_from_index(seed, tags[i], idx).
        tags = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        for g in range(m.gpus_per_node):
            tags.extend((10 + g, 30 + g, 50 + g, 60 + g))
        noise_rows = normal_from_index_tags(
            self.seed, np.asarray(tags, dtype=np.uint64), idx
        )
        noise = {tag: noise_rows[i] for i, tag in enumerate(tags)}

        out: dict[str, np.ndarray] = {}
        cpu_pwr = (
            CPU_IDLE_W + cpu_u * (m.cpu_tdp_w - CPU_IDLE_W)
        ) * self._cpu_spread[:, None] * m.cpus_per_node
        cpu_pwr += MEASUREMENT_NOISE_W * noise[1]
        out["cpu_power"] = np.maximum(cpu_pwr, 0.0)

        mem_pwr = MEM_IDLE_W + MEM_ACTIVE_W * gpu_u
        mem_pwr += 0.5 * MEASUREMENT_NOISE_W * noise[2]
        out["mem_power"] = np.maximum(mem_pwr, 0.0)

        gpu_total = np.zeros_like(gpu_u)
        for g in range(m.gpus_per_node):
            # Per-GPU spread refines the per-node factor deterministically.
            spread = self._gpu_spread_cols[g]
            pwr = (GPU_IDLE_W + gpu_u * (m.gpu_tdp_w - GPU_IDLE_W)) * spread
            pwr += MEASUREMENT_NOISE_W * noise[10 + g]
            pwr = np.maximum(pwr, 0.0)
            out[f"gpu{g}_power"] = pwr
            gpu_total += pwr
            gpu_temp = (
                m.coolant_supply_c
                + GPU_THERMAL_R * pwr
                + TEMP_NOISE_C * noise[30 + g]
            )
            out[f"gpu{g}_temp"] = gpu_temp
            # HBM runs hotter than the die under memory-bound load.
            out[f"gpu{g}_hbm_temp"] = (
                gpu_temp
                + 6.0
                + 4.0 * gpu_u
                + TEMP_NOISE_C * noise[50 + g]
            )
            out[f"gpu{g}_util"] = np.clip(
                gpu_u + 0.01 * noise[60 + g],
                0.0,
                1.0,
            )

        overhead = m.node_idle_w - (
            CPU_IDLE_W * m.cpus_per_node
            + MEM_IDLE_W
            + GPU_IDLE_W * m.gpus_per_node
        )
        overhead = max(overhead, 0.0)
        it_power = out["cpu_power"] + out["mem_power"] + gpu_total + overhead
        input_power = it_power / POL_EFFICIENCY
        input_power += MEASUREMENT_NOISE_W * noise[3]
        out["input_power"] = np.minimum(np.maximum(input_power, 0.0), m.node_max_w)

        out["cpu_temp"] = (
            m.coolant_supply_c
            + CPU_THERMAL_R * out["cpu_power"] / max(m.cpus_per_node, 1)
            + TEMP_NOISE_C * noise[4]
        )
        out["coolant_return_temp"] = (
            m.coolant_supply_c
            + NODE_THERMAL_R * out["input_power"]
            + TEMP_NOISE_C * noise[5]
        )
        out["node_energy"] = out["input_power"] * m.power_sample_period_s
        fan_base = 4000.0 + 3000.0 * np.clip(
            out["input_power"] / m.node_max_w, 0.0, 1.0
        )
        out["fan0_speed"] = fan_base * (1.0 + 0.02 * noise[6])
        out["fan1_speed"] = fan_base * (1.0 + 0.02 * noise[7])
        out["ps0_voltage"] = 380.0 + 1.5 * noise[8]
        out["ps1_voltage"] = 380.0 + 1.5 * noise[9]
        return out
