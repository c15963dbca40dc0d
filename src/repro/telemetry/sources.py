"""Base interface for telemetry sources.

A source is a deterministic function from a half-open time window
``[t0, t1)`` to a batch of records.  Two contracts matter to everything
downstream and are enforced by the shared test suite:

* **split invariance** — emitting ``[0, 60)`` equals concatenating the
  emissions of ``[0, 15) .. [45, 60)``;
* **volume accounting** — a source can state its nominal raw byte rate so
  the Fig. 4a bench can extrapolate laptop-scale runs to fleet scale.

Per-node streams share two more layers.  :class:`NodeSource` owns the
node subset a source emits, the per-(node, slot) noise index and the
extrapolation of volume from that subset to the machine.
:class:`NodeGridSource` owns the rest of the shape every numeric node
stream has — a fixed sample grid, a loss mask keyed by
``(seed, loss_tag + sensor id, cell)``, batched assembly through
:func:`~repro.telemetry.grid.assemble_sorted_batch` and the one
per-channel reference loop it is held to — so a source supplies only its
catalog and the value grids of one window.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.telemetry.grid import assemble_sorted_batch
from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import (
    RAW_OBSERVATION_BYTES,
    ObservationBatch,
    SensorCatalog,
)
from repro.util.noise import uniform_from_index, uniform_from_index_tags

__all__ = ["TelemetrySource", "NodeSource", "NodeGridSource", "sample_grid"]


def sample_grid(t0: float, t1: float, period_s: float) -> np.ndarray:
    """The absolute sample times ``k * period_s`` falling in ``[t0, t1)``
    — every fixed-rate stream's grid, so a window's samples do not
    depend on how the time range is split."""
    k0 = int(np.ceil(t0 / period_s - 1e-9))
    k1 = int(np.ceil(t1 / period_s - 1e-9))
    return np.arange(k0, k1, dtype=np.int64) * period_s


class TelemetrySource(abc.ABC):
    """Abstract deterministic telemetry stream."""

    #: Stream name, unique within a fleet (e.g. ``"power"``).
    name: str
    #: Built by each source's constructor.
    _catalog: SensorCatalog

    @property
    def catalog(self) -> SensorCatalog:
        """The data dictionary for this stream's channels."""
        return self._catalog

    @abc.abstractmethod
    def emit(self, t0: float, t1: float) -> ObservationBatch:
        """All observations with timestamps in ``[t0, t1)``."""

    def emit_reference(self, t0: float, t1: float) -> ObservationBatch:
        """Reference (unoptimized) emission path.

        Sources with a batched fast :meth:`emit` keep a per-channel
        implementation here (:class:`NodeGridSource` has the one loop the
        numeric sources share); the two must be byte-identical (enforced
        by the telemetry equivalence tests) so ``emit`` stays free to be
        rewritten for speed.  The default is simply ``emit``.
        """
        return self.emit(t0, t1)

    @abc.abstractmethod
    def nominal_bytes_per_day(self) -> float:
        """Expected raw wire volume per day at this source's scale."""

    def _check_window(self, t0: float, t1: float) -> None:
        if t1 < t0:
            raise ValueError(f"invalid window [{t0}, {t1})")


class NodeSource(TelemetrySource):
    """A stream emitted per node, for a subset of the machine's nodes.

    ``nodes`` defaults to the whole machine; ids must be distinct and in
    ``[0, machine.n_nodes)`` (``ValueError`` otherwise).  Benches emit a
    sampled subset at full fidelity and extrapolate volumes with
    :meth:`fleet_bytes_per_day`.
    """

    def __init__(
        self, machine: MachineConfig, seed: int, nodes: np.ndarray | None
    ) -> None:
        self.machine = machine
        self.seed = int(seed)
        if nodes is None:
            nodes = np.arange(machine.n_nodes)
        ids = np.asarray(nodes, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"node subset must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= machine.n_nodes):
            raise ValueError(
                f"node subset out of range [0, {machine.n_nodes}) for machine"
            )
        if np.unique(ids).size != ids.size:
            raise ValueError("node subset repeats a node id")
        self.nodes = ids.astype(np.int32)

    @property
    def machine_scale(self) -> float:
        """Factor from the emitted node subset to the whole machine."""
        return self.machine.n_nodes / max(self.nodes.size, 1)

    def _cell_index(self, k: np.ndarray) -> np.ndarray:
        """Noise index of each (node, slot ``k``) cell: ``node << 40 | k``."""
        return (
            self.nodes.astype(np.uint64)[:, None] * np.uint64(1 << 40)
            + k.astype(np.uint64)[None, :]
        )

    def fleet_bytes_per_day(self) -> float:
        """Raw volume/day extrapolated to the full machine."""
        return self.nominal_bytes_per_day() * self.machine_scale


class NodeGridSource(NodeSource):
    """A numeric per-node stream sampled on one ``(node x time)`` grid.

    A subclass sets ``name``, ``loss_tag`` and ``sample_period_s``, builds
    ``_catalog`` and implements :meth:`_grids`; sampling, the loss mask,
    batched assembly, the reference loop and volume accounting live here.
    """

    #: Loss-mask noise tag base: a cell of sensor ``sid`` is dropped by
    #: ``uniform_from_index(seed, loss_tag + sid, cell) < loss_rate``.
    loss_tag: int
    #: Sample period of every channel (seconds).
    sample_period_s: float

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int,
        nodes: np.ndarray | None,
        loss_rate: float,
    ) -> None:
        super().__init__(machine, seed, nodes)
        self.allocation = allocation
        self.loss_rate = float(loss_rate)

    @abc.abstractmethod
    def _grids(
        self, times: np.ndarray, idx: np.ndarray
    ) -> dict[str, np.ndarray]:
        """``{channel name: (node x time) value grid}`` in emission order.

        ``idx`` is the window's cell index (:meth:`_cell_index`).  This is
        the reference value expression: :meth:`emit_reference` masks and
        emits exactly these grids.
        """

    def _stacked(
        self, times: np.ndarray, idx: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(sensor ids as uint64, ``(channel, node, time)`` value cube) for
        the batched :meth:`emit`; must equal stacking :meth:`_grids`."""
        grids = self._grids(times, idx)
        sids = np.array(
            [self._catalog.id_of(name) for name in grids], dtype=np.uint64
        )
        return sids, np.stack(list(grids.values()))

    def sample_times(self, t0: float, t1: float) -> np.ndarray:
        """The absolute sample grid falling in ``[t0, t1)``."""
        return sample_grid(t0, t1, self.sample_period_s)

    def _sample_cells(self, times: np.ndarray) -> np.ndarray:
        k = np.round(times / self.sample_period_s).astype(np.int64)
        return self._cell_index(k)

    def emit(self, t0: float, t1: float) -> ObservationBatch:
        """Batched emission: one loss-mask pass over all channels, no sort."""
        self._check_window(t0, t1)
        times = self.sample_times(t0, t1)
        if times.size == 0 or self.nodes.size == 0:
            return ObservationBatch.empty()
        idx = self._sample_cells(times)
        sids, values = self._stacked(times, idx)
        keep = (
            uniform_from_index_tags(
                self.seed, np.uint64(self.loss_tag) + sids, idx
            )
            >= self.loss_rate
        )
        return assemble_sorted_batch(times, self.nodes, sids, values, keep)

    def emit_reference(self, t0: float, t1: float) -> ObservationBatch:
        """One masked batch per channel, concatenated, stable-sorted by time."""
        self._check_window(t0, t1)
        times = self.sample_times(t0, t1)
        if times.size == 0 or self.nodes.size == 0:
            return ObservationBatch.empty()
        idx = self._sample_cells(times)
        ts_grid = np.broadcast_to(times[None, :], idx.shape)
        node_grid = np.broadcast_to(self.nodes[:, None], idx.shape)
        parts: list[ObservationBatch] = []
        for sensor_name, grid in self._grids(times, idx).items():
            sid = self._catalog.id_of(sensor_name)
            # Loss mask keyed by (sensor, sample) so drops are independent
            # across channels.
            keep = (
                uniform_from_index(self.seed, self.loss_tag + sid, idx)
                >= self.loss_rate
            )
            n_keep = int(keep.sum())
            if n_keep == 0:
                continue
            parts.append(
                ObservationBatch(
                    timestamps=ts_grid[keep],
                    component_ids=node_grid[keep],
                    sensor_ids=np.full(n_keep, sid, dtype=np.int16),
                    values=grid[keep],
                )
            )
        return ObservationBatch.concat(parts).sorted_by_time()

    def nominal_bytes_per_day(self) -> float:
        """Raw volume/day for the emitted node subset."""
        per_node = sum(
            s.sample_rate_hz * (1.0 - s.loss_rate) for s in self._catalog
        )
        return per_node * self.nodes.size * RAW_OBSERVATION_BYTES * 86_400.0
