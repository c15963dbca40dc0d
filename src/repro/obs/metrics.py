"""Labeled metrics: counters and gauges.

The process's one meter registry, and it holds work only.  Every hop of
the data plane records here: work counters (``query.parts_scanned``,
unlabelled), per-topic volumes (``stream.produced_records{topic=power}``)
and gauges.  Time is the tracer's: a stage's wall time is its span's
``duration_s`` (:mod:`repro.obs.span`), so no stage is timed twice.

Cheap enough to leave on: one dict update per record.  The ``enabled``
attribute is the only recording control.

Gauges and counters registered with ``deterministic=True`` declare that
their values are functions of seeds and logical progress only (row
counts, byte volumes — never wall time); the self-telemetry exporter
publishes exactly those, so the "ODA for the ODA" loop stays replayable.
"""

from __future__ import annotations

__all__ = ["MetricsRegistry", "METRICS"]


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Labeled counters and gauges."""

    def __init__(self) -> None:
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._deterministic: set[str] = set()
        #: Whether records are accepted (the registry's one switch).
        self.enabled = True

    # -- recording -----------------------------------------------------------

    def inc(
        self,
        name: str,
        value: float = 1,
        *,
        deterministic: bool = False,
        **labels,
    ) -> None:
        """Add ``value`` to counter ``name`` (per label set)."""
        key = (name, _label_key(labels) if labels else ())
        if self.enabled:
            self._counters[key] = self._counters.get(key, 0) + value
            if deterministic:
                self._deterministic.add(name)

    def set_gauge(
        self,
        name: str,
        value: float,
        *,
        deterministic: bool = False,
        **labels,
    ) -> None:
        """Set gauge ``name`` to ``value`` (per label set)."""
        key = (name, _label_key(labels) if labels else ())
        if self.enabled:
            self._gauges[key] = float(value)
            if deterministic:
                self._deterministic.add(name)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        """Current counter value (0 if never hit)."""
        return self._counters.get((name, _label_key(labels)), 0)

    def gauge(self, name: str, **labels) -> float:
        """Current gauge value (0 if never set)."""
        return self._gauges.get((name, _label_key(labels)), 0.0)

    def snapshot(self) -> dict:
        """All meters as one JSON-ready tree, sorted and detached."""
        return {
            "counters": {
                _render(n, lk): v
                for (n, lk), v in sorted(self._counters.items())
            },
            "gauges": {
                _render(n, lk): v
                for (n, lk), v in sorted(self._gauges.items())
            },
        }

    def deterministic_values(self) -> list[tuple[str, float]]:
        """Sorted (rendered-name, value) pairs of the deterministic
        counters and gauges — the self-telemetry sensor set."""
        det = self._deterministic
        pairs = [
            (_render(n, lk), v)
            for (n, lk), v in self._counters.items()
            if n in det
        ]
        pairs += [
            (_render(n, lk), v)
            for (n, lk), v in self._gauges.items()
            if n in det
        ]
        return sorted(pairs)

    def reset(self) -> None:
        """Drop every meter."""
        self._counters.clear()
        self._gauges.clear()
        self._deterministic.clear()


#: The process-wide metrics registry the data plane records into.
METRICS = MetricsRegistry()

