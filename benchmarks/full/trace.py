"""Benchmark-side tracing: spans at the layer boundaries, recorded from
outside the program.

Nothing under ``src/`` is edited.  :meth:`Tracer.installed` replaces the
public callables of :data:`BOUNDARIES` — class attributes, and for
functions imported by name the attribute of the *using* module — with
wrappers that push a span ``[name, layer, start, end, parent]`` on a
stack, and restores them on exit.  Spans are kept in memory and written
out once, after the run.  Recording happens only inside a
:meth:`Tracer.root` block, so set-up is never traced, and only on one
thread: the traced repetition pins every executor to ``serial``.

A span's *self* time is its duration minus the part covered by its
direct children; a layer's self time is the sum over its spans.  The
root's own self time is the share of the wall attributed to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

__all__ = ["BOUNDARIES", "Tracer", "self_times", "write_spans"]

ROOT_NAME = "bench.rep"
ROOT_LAYER = "bench"


# -- counts taken at the boundaries ---------------------------------------------
#
# Each observer sees (counts, args, kwargs, result) of one finished call
# and adds work counts where the work happens; args[0] is ``self`` for
# methods.


def _emit(counts, args, kwargs, result):
    counts["telemetry.raw_bytes"] += sum(b.nbytes_raw for b in result.values())


def _produce(counts, args, kwargs, result):
    counts["stream.records"] += 1


def _fetch(counts, args, kwargs, result):
    # A poll drains the backlog, so what it returns is how far the
    # consumer was behind when it came to read.
    fetched = sum(len(records) for _, records in result)
    counts["stream.lag_max"] = max(counts["stream.lag_max"], fetched)


def _refine(counts, args, kwargs, result):
    counts["pipeline.rows_in"] += sum(len(b) for b in args[1])
    counts["pipeline.rows_out"] += result["silver"].num_rows


def _encode(counts, args, kwargs, result):
    counts["columnar.encode_rows"] += args[0].num_rows
    counts["columnar.encode_bytes_out"] += len(result)


def _compact(counts, args, kwargs, result):
    if result["merged"]:
        counts["storage.compact_calls"] += 1
        counts["storage.compact_parts_merged"] += result["merged"]
        counts["storage.compact_bytes_rewritten"] += result["bytes_after"]


def _put(counts, args, kwargs, result):
    counts["storage.ocean_put_calls"] += 1
    counts["storage.ocean_put_bytes"] += result.size


def _get(counts, args, kwargs, result):
    counts["storage.ocean_get_calls"] += 1
    counts["storage.ocean_get_bytes"] += len(result)


def _query(counts, args, kwargs, result):
    counts["query.calls"] += 1
    counts["query.rows_returned"] += result.num_rows


#: (layer, span name, "module:Class" or "module", attribute, observer).
#: A bare module is a use site: the attribute is the name that module
#: imported the function under.
BOUNDARIES = (
    ("core", "core.run", "repro.core.framework:ODAFramework", "run", None),
    ("core", "core.window", "repro.core.framework:ODAFramework", "run_window", None),
    ("telemetry", "telemetry.emit", "repro.telemetry.fleet:FleetTelemetry", "emit_window", _emit),
    ("stream", "stream.produce", "repro.stream.producer:Producer", "send", _produce),
    ("stream", "stream.fetch", "repro.stream.consumer:Consumer", "poll_slices", _fetch),
    ("stream", "stream.fetch", "repro.stream.consumer:Consumer", "poll", None),
    ("stream", "stream.commit", "repro.stream.consumer:Consumer", "commit", None),
    ("stream", "stream.retention", "repro.stream.broker:Broker", "enforce_retention", None),
    ("stream", "stream.retention", "repro.stream.sharding:ShardedBroker", "enforce_retention", None),
    ("pipeline", "pipeline.refine", "repro.pipeline.medallion:MedallionPipeline", "process", _refine),
    ("pipeline", "pipeline.bronze", "repro.pipeline.medallion", "bronze_standardize", None),
    ("pipeline", "pipeline.silver", "repro.pipeline.medallion", "silver_aggregate", None),
    ("columnar", "columnar.encode", "repro.storage.tiers", "write_table", _encode),
    ("columnar", "columnar.decode", "repro.storage.tiers", "read_table", None),
    ("columnar", "columnar.decode", "repro.query.executor", "read_table", None),
    ("columnar", "columnar.decode", "repro.columnar.file_format:RcfReader", "read", None),
    ("columnar", "columnar.decode", "repro.columnar.file_format:RcfReader", "decode_group_column", None),
    ("storage", "storage.ingest", "repro.storage.tiers:TieredStore", "ingest", None),
    ("storage", "storage.compact", "repro.storage.tiers:TieredStore", "compact", _compact),
    ("storage", "storage.retention", "repro.storage.tiers:TieredStore", "enforce", None),
    ("storage", "storage.sweep", "repro.storage.tiers:TieredStore", "sweep_superseded", None),
    ("storage", "storage.tick", "repro.storage.lifecycle:LifecycleManager", "tick", None),
    ("storage", "storage.ocean", "repro.storage.object_store:ObjectStore", "put", _put),
    ("storage", "storage.ocean", "repro.storage.object_store:ObjectStore", "get", _get),
    ("storage", "storage.ocean", "repro.storage.object_store:ObjectStore", "delete", None),
    ("storage", "storage.lake", "repro.storage.lake:TimeSeriesLake", "ingest", None),
    ("storage", "storage.lake", "repro.storage.lake:TimeSeriesLake", "query", None),
    ("query", "query.archive", "repro.storage.tiers:TieredStore", "query_archive", _query),
    ("query", "query.online", "repro.storage.tiers:TieredStore", "query_online", _query),
    ("query", "query.rollup", "repro.storage.tiers:TieredStore", "query_rollup", _query),
    ("query", "query.plan", "repro.storage.tiers", "plan_parts", None),
    ("query", "query.plan", "repro.storage.lake", "plan_segments", None),
    ("query", "query.execute", "repro.storage.tiers", "execute_plan", None),
    ("query", "query.execute", "repro.storage.lake", "execute_plan", None),
    ("serve", "serve.submit", "repro.serve.gateway:ServingGateway", "submit", None),
    ("lineage", "lineage.record", "repro.lineage.catalog:LineageCatalog", "record", None),
    ("lineage", "lineage.record", "repro.lineage.catalog:LineageCatalog", "link_many", None),
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """In-memory span recorder for one traced repetition."""

    def __init__(self) -> None:
        #: ``[name, layer, start, end, parent index]``; -1 marks the root.
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn, name: str, layer: str, observe=None):
        """``fn`` recording one span per call made inside a root block."""
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(counts, args, kwargs, result)
            finally:
                span[3] = perf_counter()
                stack.pop()
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every boundary callable; restore all of them on exit."""
        patched = []
        try:
            for layer, name, target, attr, observe in BOUNDARIES:
                owner = _resolve(target)
                original = getattr(owner, attr)
                patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer, observe))
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def wrap_endpoints(self, gateway) -> None:
        """Trace each app endpoint a gateway serves (``apps`` layer)."""
        for endpoint, fn in gateway.endpoints.items():
            gateway.endpoints[endpoint] = self.wrap(
                fn, f"apps.{endpoint}", "apps"
            )

    @contextmanager
    def root(self):
        """The timed region: every span recorded descends from this one."""
        span = [ROOT_NAME, ROOT_LAYER, 0.0, 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = perf_counter()
        try:
            yield
        finally:
            span[3] = perf_counter()
            self._stack.pop()


def write_spans(spans: list[list], path) -> None:
    """Dump spans as JSON objects ``{name, layer, start, end, parent}``."""
    keys = ("name", "layer", "start", "end", "parent")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([dict(zip(keys, s)) for s in spans], fh)


def self_times(spans: list[list]) -> list[float]:
    """Exclusive seconds of each span (duration minus direct children)."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
