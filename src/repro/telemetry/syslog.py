"""Syslog / system-event stream.

Models the "Syslog & Events" row of the paper's Fig. 3 matrix: every node
emits a low background rate of log events with a heavy-tailed severity
distribution, plus correlated *bursts* (a node having a bad hour emits at
many times the base rate — the failure-cascade pattern that Copacetic and
the UA dashboards key on).

Events are deterministic per (seed, node, time slot): the window is
discretized into one-second slots and each (node, slot) cell decides
independently — via counter-based hashing — whether it emits, at what
severity, and with which message template.  That keeps the stream
split-invariant like every other source.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import (
    RAW_EVENT_BYTES,
    EventBatch,
    SensorCatalog,
    SensorSpec,
)
from repro.telemetry.sources import NodeSource
from repro.util.noise import uniform_from_index

__all__ = ["SyslogSource", "TEMPLATES", "TEMPLATE_SEVERITIES"]

#: Message templates by severity class.  Index = message_id.
TEMPLATES: list[str] = [
    # debug (0-3)
    "slurmd: debug: credential for job verified",
    "kernel: perf: interrupt took too long, throttling",
    "systemd: Started session scope",
    "lustre: client connected to MDT",
    # info (4-9)
    "sshd: Accepted publickey for user",
    "slurmd: launching job step",
    "kernel: EDC single-bit error corrected",
    "lustre: recovery complete on OST",
    "nvidia: Xid 13 graphics engine exception recovered",
    "bmc: fan speed adjusted",
    # warning (10-14)
    "kernel: page allocation stall on node",
    "lustre: slow reply on OST, resending",
    "slurmd: job step exceeded memory watermark",
    "fabric: link retraining initiated",
    "bmc: inlet temperature above nominal",
    # error (15-18)
    "kernel: GPU fell off the bus",
    "lustre: evicting client after timeout",
    "slurmd: job step terminated by signal 9",
    "fabric: link down, rerouting traffic",
    # critical (19-20)
    "kernel: machine check exception, node halting",
    "bmc: voltage regulator fault, node power-off",
]

#: Severity index (into schema.SEVERITIES) of each template.
TEMPLATE_SEVERITIES: np.ndarray = np.array(
    [0] * 4 + [1] * 6 + [2] * 5 + [3] * 4 + [4] * 2, dtype=np.int8
)

# Cumulative severity distribution of emitted events (heavily skewed to
# low severities, as real syslog is).
_SEVERITY_PROBS = np.array([0.45, 0.40, 0.10, 0.045, 0.005])
_SEVERITY_CDF = np.cumsum(_SEVERITY_PROBS)

# First/last template index per severity class.
_SEV_RANGES = [(0, 4), (4, 10), (10, 15), (15, 19), (19, 21)]


class SyslogSource(NodeSource):
    """Deterministic per-node syslog stream.

    Parameters
    ----------
    base_rate:
        Mean events per node-second outside bursts.
    burst_prob:
        Probability that a given (node, hour) is a burst hour.
    burst_factor:
        Rate multiplier during a burst hour.
    """

    name = "syslog"

    def __init__(
        self,
        machine: MachineConfig,
        seed: int = 0,
        nodes: np.ndarray | None = None,
        base_rate: float = 0.05,
        burst_prob: float = 0.02,
        burst_factor: float = 20.0,
    ) -> None:
        if base_rate <= 0 or base_rate * burst_factor > 1.0:
            raise ValueError(
                "base_rate must be in (0, 1/burst_factor] — one slot emits "
                "at most one event"
            )
        super().__init__(machine, seed, nodes)
        self.base_rate = float(base_rate)
        self.burst_prob = float(burst_prob)
        self.burst_factor = float(burst_factor)
        self._catalog = SensorCatalog(
            [
                SensorSpec(
                    "syslog_event",
                    "event",
                    1.0 / max(base_rate, 1e-9),
                    "node",
                    "system log event (see TEMPLATES)",
                )
            ]
        )

    @property
    def templates(self) -> list[str]:
        """Template table for :meth:`EventBatch.render`."""
        return TEMPLATES

    def emit(self, t0: float, t1: float) -> EventBatch:
        self._check_window(t0, t1)
        s0 = int(np.ceil(t0 - 1e-9))
        s1 = int(np.ceil(t1 - 1e-9))
        if s1 <= s0 or self.nodes.size == 0:
            return EventBatch.empty()
        slots = np.arange(s0, s1, dtype=np.int64)
        idx = self._cell_index(slots)

        # Burst state is stable per (node, hour).
        hours = slots // 3600
        hour_idx = (
            self.nodes.astype(np.uint64)[:, None] * np.uint64(1 << 24)
            + hours.astype(np.uint64)[None, :]
        )
        bursty = uniform_from_index(self.seed, 50, hour_idx) < self.burst_prob
        rate = np.where(bursty, self.base_rate * self.burst_factor, self.base_rate)

        fires = uniform_from_index(self.seed, 51, idx) < rate
        if not fires.any():
            return EventBatch.empty()

        node_grid = np.broadcast_to(
            self.nodes[:, None], fires.shape
        )[fires]
        slot_grid = np.broadcast_to(slots[None, :], fires.shape)[fires]
        fired_idx = idx[fires]

        jitter = uniform_from_index(self.seed, 52, fired_idx)
        timestamps = slot_grid.astype(np.float64) + jitter

        sev_u = uniform_from_index(self.seed, 53, fired_idx)
        severities = np.searchsorted(_SEVERITY_CDF, sev_u).astype(np.int8)
        severities = np.minimum(severities, len(_SEV_RANGES) - 1)

        msg_u = uniform_from_index(self.seed, 54, fired_idx)
        lo = np.array([r[0] for r in _SEV_RANGES])[severities]
        hi = np.array([r[1] for r in _SEV_RANGES])[severities]
        message_ids = (lo + (msg_u * (hi - lo)).astype(np.int64)).astype(np.int16)

        batch = EventBatch(
            timestamps=timestamps,
            component_ids=node_grid,
            severities=severities,
            message_ids=message_ids,
        )
        return batch.sorted_by_time()

    def nominal_bytes_per_day(self) -> float:
        eff_rate = self.base_rate * (
            1.0 + self.burst_prob * (self.burst_factor - 1.0)
        )
        return eff_rate * self.nodes.size * RAW_EVENT_BYTES * 86_400.0
