"""Labeled metrics: counters, gauges, fixed-bucket histograms.

The process's one meter registry.  Every hop of the data plane records
here: work counters (``query.parts_scanned``, unlabelled), per-topic
volumes (``stream.produced_records{topic=power}``), and stage wall
times, which :meth:`MetricsRegistry.timer` observes into histograms
(``window.total``, ``tier.ingest``) so a stage's total, call count and
worst call all come from one meter.

Cheap enough to leave on: one coarse lock taken once per record, one
dict update under it.  The ``enabled`` property is the only recording
control.

Gauges and counters registered with ``deterministic=True`` declare that
their values are functions of seeds and logical progress only (row
counts, byte volumes — never wall time); the self-telemetry exporter
publishes exactly those, so the "ODA for the ODA" loop stays replayable.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
]

#: Default histogram bucket upper bounds (seconds-flavoured, geometric).
DEFAULT_BUCKETS = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)

#: Bucket bounds suited to row/byte counts.
SIZE_BUCKETS = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _render(name: str, label_key: tuple) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class Histogram:
    """Fixed-bucket histogram (cumulative-style bucket counts)."""

    __slots__ = ("edges", "counts", "total", "n", "max_value")

    def __init__(self, edges: tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(edges):
            raise ValueError("bucket edges must be non-empty and ascending")
        self.edges = tuple(float(e) for e in edges)
        # counts[i] = observations <= edges[i]; counts[-1] = overflow.
        self.counts = [0] * (len(self.edges) + 1)
        self.total = 0.0
        self.n = 0
        self.max_value = 0.0

    def observe(self, value: float) -> None:
        # First edge >= value; len(edges) (the overflow slot) if none.
        self.counts[bisect_left(self.edges, value)] += 1
        self.total += value
        self.n += 1
        if value > self.max_value:
            self.max_value = value

    def to_dict(self) -> dict:
        return {
            "buckets": {
                **{f"le_{edge:g}": c for edge, c in zip(self.edges, self.counts)},
                "overflow": self.counts[-1],
            },
            "count": self.n,
            "total": self.total,
            "mean": self.total / self.n if self.n else 0.0,
            "max": self.max_value,
        }


class MetricsRegistry:
    """Thread-safe labeled counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple[str, tuple], float] = {}
        self._gauges: dict[tuple[str, tuple], float] = {}
        self._hists: dict[tuple[str, tuple], Histogram] = {}
        self._buckets: dict[str, tuple[float, ...]] = {}
        self._deterministic: set[str] = set()
        self._on = True

    @property
    def enabled(self) -> bool:
        """Whether records are accepted (the registry's one switch)."""
        return self._on

    @enabled.setter
    def enabled(self, value: bool) -> None:
        with self._lock:
            self._on = bool(value)

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
        with self._lock:
            if self._on:
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
        with self._lock:
            if self._on:
                self._gauges[key] = float(value)
                if deterministic:
                    self._deterministic.add(name)

    def register_buckets(self, name: str, edges: tuple[float, ...]) -> None:
        """Fix the bucket bounds future ``observe(name, ...)`` calls use.

        Must happen before the first observation of ``name``; later calls
        with different bounds raise (mixing bucketings is unmergeable).
        """
        edges = tuple(float(e) for e in edges)
        with self._lock:
            prev = self._buckets.get(name)
            if prev is not None and prev != edges:
                raise ValueError(
                    f"histogram {name!r} already registered with different "
                    "bucket edges"
                )
            for (hname, _), hist in self._hists.items():
                if hname == name and hist.edges != edges:
                    raise ValueError(
                        f"histogram {name!r} already observed with different "
                        "bucket edges"
                    )
            self._buckets[name] = edges

    def observe(self, name: str, value: float, **labels) -> None:
        """Record ``value`` into histogram ``name`` (per label set)."""
        key = (name, _label_key(labels) if labels else ())
        with self._lock:
            if self._on:
                self._observe_locked(key, value)

    def _observe_locked(self, key: tuple[str, tuple], value: float) -> None:
        hist = self._hists.get(key)
        if hist is None:
            edges = self._buckets.get(key[0], DEFAULT_BUCKETS)
            hist = self._hists[key] = Histogram(edges)
        hist.observe(value)

    @contextmanager
    def timer(self, name: str, **labels):
        """Observe a block's wall duration into histogram ``name``.

        Whether the block is recorded is decided *once, at entry*: a
        block entered while the registry is enabled is observed even if
        recording stops before it exits (an exception included), and a
        block entered while it is off stays unrecorded however the
        switch moves.
        """
        if not self._on:
            yield
            return
        key = (name, _label_key(labels) if labels else ())
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            with self._lock:
                self._observe_locked(key, dt)

    # -- reading ---------------------------------------------------------------

    def counter(self, name: str, **labels) -> float:
        """Current counter value (0 if never hit)."""
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0)

    def gauge(self, name: str, **labels) -> float:
        """Current gauge value (0 if never set)."""
        with self._lock:
            return self._gauges.get((name, _label_key(labels)), 0.0)

    def total(self, name: str, **labels) -> float:
        """Sum of histogram ``name``'s observations (0.0 if never hit)."""
        with self._lock:
            hist = self._hists.get((name, _label_key(labels)))
            return hist.total if hist is not None else 0.0

    def snapshot(self) -> dict:
        """All meters as one JSON-ready tree, sorted and detached."""
        with self._lock:
            return {
                "counters": {
                    _render(n, lk): v
                    for (n, lk), v in sorted(self._counters.items())
                },
                "gauges": {
                    _render(n, lk): v
                    for (n, lk), v in sorted(self._gauges.items())
                },
                "histograms": {
                    _render(n, lk): h.to_dict()
                    for (n, lk), h in sorted(self._hists.items())
                },
            }

    def deterministic_values(self) -> list[tuple[str, float]]:
        """Sorted (rendered-name, value) pairs of the deterministic
        counters and gauges — the self-telemetry sensor set."""
        with self._lock:
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
        """Drop every meter (bucket registrations survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._hists.clear()
            self._deterministic.clear()


#: The process-wide metrics registry the data plane records into.
METRICS = MetricsRegistry()

# Count-valued histograms need count-scaled buckets; register before any
# instrumented module can observe into them with the default edges.
METRICS.register_buckets("refine.rows_per_window", SIZE_BUCKETS)
