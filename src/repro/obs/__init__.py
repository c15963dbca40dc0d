"""Self-observability for the ODA: tracing, metrics, self-telemetry.

The paper's operational lesson (§VI-B) applied to ourselves: OLCF
monitors the ODA platform *with* the ODA platform.  This package is the
reproduction's own health instrumentation:

* :data:`TRACER` — span-based tracing with **deterministic IDs** (seeds
  and logical window indices, never the clock), propagated producer →
  broker → consumer → medallion stages → tier writes → query executor.
* :data:`METRICS` — the process's one meter registry: labeled counters
  and gauges, one dict update per record, one ``enabled`` switch.  It
  holds work; spans hold time (a stage's wall time is its span's
  ``duration_s``).
* :mod:`repro.obs.exporters` — JSONL dumps, snapshot trees, and the
  self-telemetry loop that re-publishes deterministic obs meters as a
  synthetic telemetry topic so the UA dashboard can render the
  framework's own health.
* ``python -m repro.obs report trace.jsonl`` — the operator CLI
  (``make obs-report`` drives it end to end).

Import discipline: this package sits next to ``repro.perf`` on the
cross-cutting spine (every layer may import it) and imports nothing
back from ``repro.perf``; anything it needs from the data plane is
imported lazily at call time.
"""

from repro.obs.exporters import (
    TraceCorruptWarning,
    health_batch,
    health_catalog,
    read_jsonl,
    span_tree,
    write_jsonl,
)
from repro.obs.ids import span_id, trace_id
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.span import TRACER, Span, Tracer

__all__ = [
    "TRACER",
    "Tracer",
    "Span",
    "METRICS",
    "MetricsRegistry",
    "trace_id",
    "span_id",
    "span_tree",
    "write_jsonl",
    "read_jsonl",
    "TraceCorruptWarning",
    "health_catalog",
    "health_batch",
    "reset_all",
]


def reset_all() -> None:
    """Reset the tracer and metrics registry (benchmark/test isolation)."""
    TRACER.reset()
    METRICS.reset()
