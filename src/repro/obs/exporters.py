"""Exporters: JSONL dumps, snapshot trees, and the self-telemetry loop.

Three ways out of the tracer/metrics registries:

* :func:`write_jsonl` / :func:`read_jsonl` — one JSON object per line,
  spans in deterministic tree order (so two seeded runs diff cleanly),
  metric lines after.
* :func:`span_tree` — finished spans assembled into nested dicts, the
  shape tests assert against.
* :func:`health_catalog` / :func:`health_batch` — obs metrics re-packed
  as a synthetic :class:`~repro.telemetry.schema.ObservationBatch`, the
  "ODA for the ODA" loop: the framework publishes this batch to a
  normal broker topic, refines it through the medallion stages, and the
  UA dashboard renders the framework's own health from the result.
  Only *deterministic* meters (row counts, byte volumes) are exported,
  so replay equivalence survives the loop.
"""

from __future__ import annotations

import json
import warnings

from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.span import TRACER, Span, Tracer

__all__ = [
    "span_tree",
    "write_jsonl",
    "read_jsonl",
    "health_catalog",
    "health_batch",
    "TraceCorruptWarning",
]


class TraceCorruptWarning(UserWarning):
    """A trace-dump line could not be parsed and was skipped.

    The torn-line analogue of
    :class:`repro.pipeline.checkpoint.CheckpointCorruptWarning`: a crash
    mid-write or a truncated copy leaves a half-line at the end of a
    JSONL dump, and losing one line must not poison the whole dump."""


# -- span trees ---------------------------------------------------------------


def span_tree(spans: list[Span] | None = None) -> list[dict]:
    """Assemble finished spans into nested root trees.

    Children are ordered by (name, seq) — the deterministic tree order —
    and roots by (trace_id, name, seq).  Spans whose parent never
    finished (still live, or dropped by the buffer bound) surface as
    roots so nothing silently disappears — marked ``orphaned: True`` so
    a reader can tell a severed subtree from a true root (data loss
    from topology).
    """
    if spans is None:
        spans = TRACER.finished()
    nodes = {s.span_id: {**s.to_dict(), "children": []} for s in spans}
    roots = []
    for span in spans:
        node = nodes[span.span_id]
        parent = nodes.get(span.parent_id)
        if parent is None:
            if span.parent_id:
                node["orphaned"] = True
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda c: (c["name"], c["seq"]))
    roots.sort(key=lambda r: (r["trace_id"], r["name"], r["seq"]))
    return roots


def _flatten(roots: list[dict]) -> list[dict]:
    out: list[dict] = []
    stack = list(reversed(roots))
    while stack:
        node = stack.pop()
        line = {k: v for k, v in node.items() if k != "children"}
        out.append(line)
        stack.extend(reversed(node["children"]))
    return out


# -- JSONL --------------------------------------------------------------------


def write_jsonl(
    path,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    include_metrics: bool = True,
) -> int:
    """Dump spans (deterministic DFS order) and metrics to ``path``.

    Returns the number of lines written.  Span lines are byte-identical
    across same-seed runs once ``duration_s`` is stripped; metric lines
    carry wall-time distributions and are for operators, not replay
    diffs.
    """
    tracer = tracer if tracer is not None else TRACER
    metrics = metrics if metrics is not None else METRICS
    flat = _flatten(span_tree(tracer.finished()))
    lines = [json.dumps(line, sort_keys=True) for line in flat]
    orphaned = sum(1 for line in flat if line.get("orphaned"))
    if tracer.dropped or orphaned:
        lines.append(
            json.dumps(
                {
                    "kind": "dropped_spans",
                    "count": tracer.dropped,
                    "orphaned": orphaned,
                },
                sort_keys=True,
            )
        )
    if include_metrics:
        snap = metrics.snapshot()
        for family in ("counters", "gauges"):
            for name, value in snap[family].items():
                lines.append(
                    json.dumps(
                        {"kind": family[:-1], "name": name, "value": value},
                        sort_keys=True,
                    )
                )
        for name, hist in snap["histograms"].items():
            lines.append(
                json.dumps(
                    {"kind": "histogram", "name": name, **hist},
                    sort_keys=True,
                )
            )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def read_jsonl(path) -> list[dict]:
    """Parse a :func:`write_jsonl` dump back into dicts.

    Torn lines — a crash mid-write, a truncated copy — are skipped
    rather than raising: a line that is not UTF-8, not JSON or not a
    JSON object warns :class:`TraceCorruptWarning` and counts under
    ``obs.trace_lines_skipped``, mirroring the checkpoint store's
    corrupt-file quarantine (one bad artifact costs one artifact, never
    the whole dump).
    """
    out = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                record = json.loads(raw.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError included
                record = None
            if isinstance(record, dict):
                out.append(record)
            else:
                warnings.warn(
                    TraceCorruptWarning(
                        f"skipping unparseable line {lineno} of trace "
                        f"dump {path}"
                    ),
                    stacklevel=2,
                )
                METRICS.inc("obs.trace_lines_skipped")
    return out


# -- self-telemetry ------------------------------------------------------------


def health_catalog(names: list[str], sample_period_s: float = 15.0):
    """A :class:`~repro.telemetry.schema.SensorCatalog` for obs metrics.

    One sensor per deterministic meter name; the fixed name list is
    owned by the publisher (the framework) so the sensor-id mapping —
    and therefore the silver schema — is stable across windows.
    """
    # Imported lazily: repro.obs must stay import-light because the
    # instrumented modules (telemetry emitters included) import it at
    # call time.
    from repro.telemetry.schema import SensorCatalog, SensorSpec

    return SensorCatalog(
        [
            SensorSpec(
                name=name,
                unit="obs",
                sample_period_s=sample_period_s,
                component="platform",
                description="framework self-telemetry meter",
            )
            for name in names
        ]
    )


def health_batch(
    metrics: MetricsRegistry,
    t: float,
    catalog,
    component_id: int = 0,
):
    """Sample the deterministic meters into an observation batch.

    Only meters whose names the ``catalog`` knows are exported (missing
    ones are simply absent this window); values are stamped at logical
    time ``t`` on pseudo-component ``component_id`` — the "platform"
    node the self-telemetry stream observes.
    """
    import numpy as np

    from repro.telemetry.schema import ObservationBatch

    pairs = [
        (name, value)
        for name, value in metrics.deterministic_values()
        if name in catalog
    ]
    if not pairs:
        return ObservationBatch.empty()
    return ObservationBatch(
        timestamps=np.full(len(pairs), float(t)),
        component_ids=np.full(len(pairs), component_id, dtype=np.int32),
        sensor_ids=np.array(
            [catalog.id_of(name) for name, _ in pairs], dtype=np.int16
        ),
        values=np.array([value for _, value in pairs], dtype=np.float64),
    )
