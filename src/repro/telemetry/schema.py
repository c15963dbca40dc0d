"""Telemetry record schemas.

Two wire shapes cover everything the paper's pipelines ingest:

* :class:`ObservationBatch` — numeric sensor observations in the *long*
  (tall) format that the medallion Bronze stage standardizes on: one row
  per (timestamp, component, sensor, value).
* :class:`EventBatch` — discrete log events (syslog, RAS, security) with a
  severity and a message template code.

Both are columnar (struct-of-arrays) so downstream operators stay
vectorized; a "row" never exists as a Python object on the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SensorSpec", "SensorCatalog", "ObservationBatch", "EventBatch"]

#: Assumed wire size of one raw observation (timestamp, ids, value + framing),
#: used for TB/day accounting.  Matches a compact binary encoding; JSON wire
#: formats are 5-10x larger, which the Fig. 4a bench reports separately.
RAW_OBSERVATION_BYTES = 26

#: Assumed average wire size of one raw log event (timestamp, host, tag,
#: rendered text).  Syslog lines average ~100-200 bytes in practice.
RAW_EVENT_BYTES = 150


@dataclass(frozen=True)
class SensorSpec:
    """Static description of one sensor channel — a data-dictionary entry.

    The paper (§VI-A) stresses building a *data dictionary* holding sample
    rate, failure (loss) rate, and physical meaning per sensor; this class
    is exactly that record.
    """

    name: str
    unit: str
    sample_period_s: float
    component: str  # e.g. "node", "cabinet", "cdu", "plant"
    description: str = ""
    loss_rate: float = 0.0  # fraction of samples dropped at the source

    def __post_init__(self) -> None:
        if not self.sample_period_s > 0:  # refuses NaN too
            raise ValueError(f"sample_period_s must be > 0 for {self.name}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1) for {self.name}")

    @property
    def sample_rate_hz(self) -> float:
        """Samples per second for one component instance."""
        return 1.0 / self.sample_period_s


class SensorCatalog:
    """An ordered, id-assigning registry of :class:`SensorSpec`.

    Sensor ids are dense small integers so observation batches can store
    them as ``int16`` columns.
    """

    def __init__(self, specs: list[SensorSpec] | None = None) -> None:
        self._specs: list[SensorSpec] = []
        self._by_name: dict[str, int] = {}
        for spec in specs or []:
            self.add(spec)

    def add(self, spec: SensorSpec) -> int:
        """Register a spec; returns its id.  Names must be unique."""
        if spec.name in self._by_name:
            raise ValueError(f"duplicate sensor name {spec.name!r}")
        sensor_id = len(self._specs)
        self._specs.append(spec)
        self._by_name[spec.name] = sensor_id
        return sensor_id

    def id_of(self, name: str) -> int:
        """Sensor id for ``name`` (KeyError if unknown)."""
        return self._by_name[name]

    def spec(self, sensor_id: int) -> SensorSpec:
        """Spec for a sensor id."""
        return self._specs[sensor_id]

    def names(self) -> list[str]:
        """All sensor names in id order."""
        return [s.name for s in self._specs]

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self):
        return iter(self._specs)


@dataclass
class ObservationBatch:
    """A columnar batch of long-format sensor observations (Bronze shape).

    Attributes
    ----------
    timestamps:
        float64 seconds since the simulation epoch.
    component_ids:
        int32 index of the emitting component (node, cabinet, ...).
    sensor_ids:
        int16 index into a :class:`SensorCatalog`.
    values:
        float64 sensor readings.
    """

    timestamps: np.ndarray
    component_ids: np.ndarray
    sensor_ids: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        for name in ("component_ids", "sensor_ids", "values"):
            if len(getattr(self, name)) != n:
                raise ValueError(
                    f"column {name} has length {len(getattr(self, name))}, "
                    f"expected {n}"
                )
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.component_ids = np.asarray(self.component_ids, dtype=np.int32)
        self.sensor_ids = np.asarray(self.sensor_ids, dtype=np.int16)
        self.values = np.asarray(self.values, dtype=np.float64)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def nbytes_raw(self) -> int:
        """Estimated raw wire size of this batch (for volume accounting)."""
        return len(self) * RAW_OBSERVATION_BYTES

    @classmethod
    def empty(cls) -> "ObservationBatch":
        """A zero-row batch."""
        return cls(
            timestamps=np.empty(0, dtype=np.float64),
            component_ids=np.empty(0, dtype=np.int32),
            sensor_ids=np.empty(0, dtype=np.int16),
            values=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def concat(cls, batches: list["ObservationBatch"]) -> "ObservationBatch":
        """Concatenate batches in order (empty list yields an empty batch)."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        return cls(
            timestamps=np.concatenate([b.timestamps for b in batches]),
            component_ids=np.concatenate([b.component_ids for b in batches]),
            sensor_ids=np.concatenate([b.sensor_ids for b in batches]),
            values=np.concatenate([b.values for b in batches]),
        )

    def sorted_by_time(self) -> "ObservationBatch":
        """A copy sorted by timestamp (stable)."""
        order = np.argsort(self.timestamps, kind="stable")
        return ObservationBatch(
            timestamps=self.timestamps[order],
            component_ids=self.component_ids[order],
            sensor_ids=self.sensor_ids[order],
            values=self.values[order],
        )

    def select_sensor(self, sensor_id: int) -> "ObservationBatch":
        """Rows for a single sensor id (returns views where possible)."""
        mask = self.sensor_ids == sensor_id
        return ObservationBatch(
            timestamps=self.timestamps[mask],
            component_ids=self.component_ids[mask],
            sensor_ids=self.sensor_ids[mask],
            values=self.values[mask],
        )

    def columns(self) -> dict[str, np.ndarray]:
        """The batch as a name -> column mapping (zero-copy)."""
        return {
            "timestamp": self.timestamps,
            "component_id": self.component_ids,
            "sensor_id": self.sensor_ids,
            "value": self.values,
        }


#: Syslog severity levels, RFC 5424 subset used by the generators.
SEVERITIES = ("debug", "info", "warning", "error", "critical")
SEVERITY_IDS = {name: i for i, name in enumerate(SEVERITIES)}


@dataclass
class EventBatch:
    """A columnar batch of discrete log events (syslog / RAS / security).

    ``message_ids`` index a template table owned by the emitting source, so
    the hot path never materializes strings; rendered text is produced
    lazily by :meth:`render`.
    """

    timestamps: np.ndarray
    component_ids: np.ndarray
    severities: np.ndarray  # int8 index into SEVERITIES
    message_ids: np.ndarray  # int16 index into the source's template table

    def __post_init__(self) -> None:
        n = len(self.timestamps)
        for name in ("component_ids", "severities", "message_ids"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length mismatch")
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64)
        self.component_ids = np.asarray(self.component_ids, dtype=np.int32)
        self.severities = np.asarray(self.severities, dtype=np.int8)
        self.message_ids = np.asarray(self.message_ids, dtype=np.int16)

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def nbytes_raw(self) -> int:
        """Estimated raw wire size (rendered text lines)."""
        return len(self) * RAW_EVENT_BYTES

    @classmethod
    def empty(cls) -> "EventBatch":
        return cls(
            timestamps=np.empty(0, dtype=np.float64),
            component_ids=np.empty(0, dtype=np.int32),
            severities=np.empty(0, dtype=np.int8),
            message_ids=np.empty(0, dtype=np.int16),
        )

    @classmethod
    def concat(cls, batches: list["EventBatch"]) -> "EventBatch":
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        return cls(
            timestamps=np.concatenate([b.timestamps for b in batches]),
            component_ids=np.concatenate([b.component_ids for b in batches]),
            severities=np.concatenate([b.severities for b in batches]),
            message_ids=np.concatenate([b.message_ids for b in batches]),
        )

    def sorted_by_time(self) -> "EventBatch":
        order = np.argsort(self.timestamps, kind="stable")
        return EventBatch(
            timestamps=self.timestamps[order],
            component_ids=self.component_ids[order],
            severities=self.severities[order],
            message_ids=self.message_ids[order],
        )

    def at_least(self, severity: str) -> "EventBatch":
        """Rows whose severity is >= the named level."""
        floor = SEVERITY_IDS[severity]
        mask = self.severities >= floor
        return EventBatch(
            timestamps=self.timestamps[mask],
            component_ids=self.component_ids[mask],
            severities=self.severities[mask],
            message_ids=self.message_ids[mask],
        )

    def render(self, templates: list[str], limit: int | None = None) -> list[str]:
        """Render events to human-readable lines using ``templates``."""
        n = len(self) if limit is None else min(limit, len(self))
        out = []
        for i in range(n):
            sev = SEVERITIES[self.severities[i]]
            out.append(
                f"[{self.timestamps[i]:.3f}] comp-{self.component_ids[i]:05d} "
                f"{sev.upper()}: {templates[self.message_ids[i]]}"
            )
        return out
