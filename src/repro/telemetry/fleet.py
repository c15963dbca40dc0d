"""Fleet-level telemetry assembly and volume accounting.

:class:`FleetTelemetry` wires every source for one machine behind a single
``emit_window`` call and keeps running byte/row accounting per stream —
the measurement behind the paper's "4.2-4.5 TB/day" ingest figure
(Fig. 4a).  Benches run a small node subset at full fidelity and use
:meth:`FleetTelemetry.extrapolated_bytes_per_day` to report machine-scale
volumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perf import baseline
from repro.telemetry.facility import FacilitySource
from repro.telemetry.interconnect import InterconnectSource
from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.perf import PerfCounterSource
from repro.telemetry.power import PowerThermalSource
from repro.telemetry.schema import EventBatch, ObservationBatch
from repro.telemetry.sources import NodeSource
from repro.telemetry.storage_io import StorageIOSource
from repro.telemetry.syslog import SyslogSource

__all__ = ["StreamVolume", "FleetTelemetry"]


@dataclass
class StreamVolume:
    """Running ingest accounting for one stream."""

    stream: str
    rows: int = 0
    raw_bytes: int = 0
    windows: int = 0
    duration_s: float = 0.0

    def record(self, n_rows: int, n_bytes: int, window_s: float) -> None:
        """Add one emitted window's contribution."""
        self.rows += n_rows
        self.raw_bytes += n_bytes
        self.windows += 1
        self.duration_s += window_s

    @property
    def bytes_per_day(self) -> float:
        """Observed raw bytes extrapolated to a day."""
        if self.duration_s <= 0:
            return 0.0
        return self.raw_bytes * 86_400.0 / self.duration_s


class FleetTelemetry:
    """All telemetry sources of one machine behind a single interface.

    Parameters
    ----------
    machine:
        Machine to instrument.
    allocation:
        Job allocation oracle (from :func:`synthetic_job_mix` or the
        :mod:`repro.scheduler` simulator).
    seed:
        Root seed shared by all sources.
    nodes:
        Node subset to emit at full fidelity (default: whole fleet).
    """

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int = 0,
        nodes: np.ndarray | None = None,
    ) -> None:
        self.machine = machine
        self.allocation = allocation
        self.seed = int(seed)
        if nodes is None:
            nodes = np.arange(machine.n_nodes, dtype=np.int32)
        self.nodes = np.asarray(nodes, dtype=np.int32)

        self.power = PowerThermalSource(machine, allocation, seed, self.nodes)
        self.perf = PerfCounterSource(machine, allocation, seed, self.nodes)
        self.syslog = SyslogSource(machine, seed, self.nodes)
        self.storage_io = StorageIOSource(machine, allocation, seed, self.nodes)
        self.interconnect = InterconnectSource(machine, allocation, seed, self.nodes)
        self.facility = FacilitySource(machine, self.total_it_power, seed)
        self._sources = (
            self.power,
            self.perf,
            self.syslog,
            self.storage_io,
            self.interconnect,
            self.facility,
        )

        self._volumes: dict[str, StreamVolume] = {
            s.name: StreamVolume(s.name) for s in self._sources
        }

    def total_it_power(self, times: np.ndarray) -> np.ndarray:
        """Fleet IT power (watts) at each time, extrapolated from the
        emitted node subset to the whole machine."""
        times = np.asarray(times, dtype=np.float64)
        if times.size == 0 or self.nodes.size == 0:
            return np.zeros(times.size)
        gpu_u, cpu_u, _ = self.allocation.utilization(self.nodes, times)
        m = self.machine
        node_power = (
            m.node_idle_w
            + gpu_u * (m.gpu_tdp_w - 90.0) * m.gpus_per_node
            + cpu_u * (m.cpu_tdp_w - 60.0) * m.cpus_per_node
        )
        # Sum each time's *contiguous* node column so the float reduction
        # order depends only on the node count, never on how many times
        # share the window — axis-0 reductions over (nodes, times) block
        # their pairwise sums by the trailing shape, which would make
        # plant telemetry vary in the last bits with the window split.
        totals = np.ascontiguousarray(node_power.T).sum(axis=1)
        return totals * (m.n_nodes / node_power.shape[0])

    def emit_window(
        self, t0: float, t1: float
    ) -> dict[str, ObservationBatch | EventBatch]:
        """Emit every stream for ``[t0, t1)`` and record volumes.

        Each source emits through its batched ``emit``, or — under
        ``baseline_mode()`` — its byte-identical loop-per-channel
        ``emit_reference``."""
        out: dict[str, ObservationBatch | EventBatch] = {}
        reference = baseline.active()
        for source in self._sources:
            if reference:
                batch = source.emit_reference(t0, t1)
            else:
                batch = source.emit(t0, t1)
            out[source.name] = batch
            self._volumes[source.name].record(
                len(batch), batch.nbytes_raw, t1 - t0
            )
        return out

    @property
    def volumes(self) -> dict[str, StreamVolume]:
        """Per-stream ingest accounting so far."""
        return dict(self._volumes)

    def extrapolated_bytes_per_day(self) -> dict[str, float]:
        """Observed per-stream volume scaled from the node subset to the
        full machine (plant streams are already machine-scale)."""
        out = {}
        for source in self._sources:
            per_day = self._volumes[source.name].bytes_per_day
            if isinstance(source, NodeSource):
                per_day *= source.machine_scale
            out[source.name] = per_day
        return out

    def nominal_fleet_bytes_per_day(self) -> dict[str, float]:
        """Analytic (no-emission) per-stream volume at machine scale."""
        return {s.name: s.fleet_bytes_per_day() for s in self._sources}
