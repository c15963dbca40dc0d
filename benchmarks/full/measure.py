"""One run of one workload: repetitions, output checks, metric values.

``--trace 0`` repeats the workload at the program's default options
until the timed regions add up to ``--seconds`` and reports every
end-to-end metric as the median over repetitions (latency percentiles
are taken over operations, each at its median over repetitions).
``--trace 1`` runs three repetitions — default options, the untraced
serial control, and the traced serial repetition — and reports every
per-layer metric.
"""

from __future__ import annotations

import resource
from collections import defaultdict
from statistics import median

import numpy as np

from repro.query import shutdown_scan_pool

from benchmarks.full import spec
from benchmarks.full.trace import ROOT_NAME, Tracer, self_times
from benchmarks.full.workloads import Rep, resolved_modes, toggle_table, workloads

__all__ = ["run_once"]


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _summary(values: list[float]) -> dict:
    q1, q3 = spec.quartiles(values)
    return {"value": median(values), "q1": q1, "q3": q3, "n": len(values)}


def _throughput(rep: Rep) -> float:
    return rep.work / rep.work_wall_s


def end_to_end(reps: list[Rep], peak_rss_mb: float) -> dict:
    """Every end-to-end metric, with quartiles and count over reps."""

    def over(fn):
        return _summary([fn(rep) for rep in reps])

    def write_amp(rep: Rep) -> float:
        put = rep.state["ocean_put_bytes"]
        return put / (put - rep.state["rewrite_bytes"])

    # Every repetition performs the same operations in the same order,
    # so operation k has one latency per repetition.  The median of
    # those is the operation's latency with one-off pauses (a garbage
    # collection, a descheduled thread) taken out; the percentiles over
    # operations then show the stalls the workload is built to have (a
    # compaction tick, a cache-thrashing scan, a read behind a write).
    # Quartiles are still those of the per-repetition percentiles.
    per_operation = np.median([rep.latencies_ms for rep in reps], axis=0)

    def latency(q: float) -> dict:
        summary = over(lambda r: float(np.percentile(r.latencies_ms, q)))
        summary["value"] = float(np.percentile(per_operation, q))
        return summary

    return {
        "setup_s": over(lambda r: r.setup_s),
        "throughput_per_s": over(_throughput),
        "latency_p50_ms": latency(50),
        "latency_p90_ms": latency(90),
        "stored_bytes_per_raw_byte": over(
            lambda r: r.state["stored_bytes"] / r.state["raw_bytes"]
        ),
        "ocean_write_amp": over(write_amp),
        "peak_rss_mb": _summary([peak_rss_mb]),
    }


def _p(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(
    default: Rep,
    serial: Rep,
    traced: Rep,
    tracer: Tracer,
    toggles: dict | None,
    failed_share: float,
) -> dict:
    """Every per-layer value the traced repetition and its two untraced
    companions give; names the workload never touches stay 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    self_s: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    durations: defaultdict[str, list[float]] = defaultdict(list)
    for (name, layer, start, end, _), own in zip(spans, selfs):
        self_s[name] += own
        self_s[f"layer:{layer}"] += own
        calls[name] += 1
        durations[name].append((end - start) * 1e3)
    root_wall = sum(durations[ROOT_NAME]) / 1e3
    counts, prog, state = tracer.counts, traced.counters, traced.state

    by_label: defaultdict[str, list[float]] = defaultdict(list)
    for label, ms in zip(traced.labels, traced.latencies_ms):
        by_label[label].append(ms)
        status = label.partition(":")[2]
        if status:
            by_label[f"status:{status}"].append(ms)

    out = {
        "core.run_self_s": self_s["core.run"],
        "core.window_self_s": self_s["core.window"],
        "core.window_calls": calls["core.window"],
        "core.window_p50_ms": _p(traced.window_ms, 50),
        "core.window_p90_ms": _p(traced.window_ms, 90),
        "core.attributed_share": 1.0 - _ratio(self_s[ROOT_NAME], root_wall),
        "core.serial_throughput_per_s": _throughput(serial),
        "core.default_over_serial": default.work_wall_s / serial.work_wall_s,
        "core.failed_ops_share": failed_share,
        # Demoted from the end-to-end set: only serve_mixed has the
        # samples for it (see the README); from the default repetition.
        "latency_p99_ms": _p(default.latencies_ms, 99),
        "telemetry.emit_self_s": self_s["telemetry.emit"],
        "telemetry.emit_calls": calls["telemetry.emit"],
        "telemetry.raw_bytes": counts["telemetry.raw_bytes"],
        "stream.produce_self_s": self_s["stream.produce"],
        "stream.fetch_self_s": self_s["stream.fetch"],
        "stream.commit_self_s": self_s["stream.commit"],
        "stream.retention_self_s": self_s["stream.retention"],
        "stream.records": counts["stream.records"],
        "stream.retained_bytes_end": state["stream_retained_bytes"],
        "stream.lag_max": counts["stream.lag_max"],
        "pipeline.refine_self_s": self_s["layer:pipeline"],
        "pipeline.refine_calls": calls["pipeline.refine"],
        "pipeline.rows_in": counts["pipeline.rows_in"],
        "pipeline.rows_out": counts["pipeline.rows_out"],
        "columnar.encode_self_s": self_s["columnar.encode"],
        "columnar.encode_calls": calls["columnar.encode"],
        "columnar.encode_rows": counts["columnar.encode_rows"],
        "columnar.encode_bytes_out": counts["columnar.encode_bytes_out"],
        "columnar.decode_self_s": self_s["columnar.decode"],
        "columnar.decode_calls": calls["columnar.decode"],
        "columnar.chunk_memo_hit_ratio": _ratio(
            prog["chunk_memo.hits"], prog["chunk_memo.hits"] + prog["chunk_memo.misses"]
        ),
        "storage.ingest_self_s": self_s["storage.ingest"],
        "storage.ingest_calls": calls["storage.ingest"],
        "storage.tick_self_s": self_s["storage.tick"],
        "storage.tick_calls": calls["storage.tick"],
        "storage.tick_incl_s": sum(durations["storage.tick"]) / 1e3,
        "storage.tick_max_ms": max(durations["storage.tick"], default=0.0),
        "storage.compact_self_s": self_s["storage.compact"],
        "storage.compact_calls": counts["storage.compact_calls"],
        "storage.compact_parts_merged": counts["storage.compact_parts_merged"],
        "storage.compact_bytes_rewritten": counts["storage.compact_bytes_rewritten"],
        "storage.retention_self_s": self_s["storage.retention"],
        "storage.sweep_self_s": self_s["storage.sweep"],
        "storage.ocean_self_s": self_s["storage.ocean"],
        "storage.ocean_put_calls": counts["storage.ocean_put_calls"],
        "storage.ocean_put_bytes": counts["storage.ocean_put_bytes"],
        "storage.ocean_get_calls": counts["storage.ocean_get_calls"],
        "storage.ocean_get_bytes": counts["storage.ocean_get_bytes"],
        "storage.ocean_parts_end": state["ocean_parts"],
        "storage.ocean_bytes_end": state["ocean_bytes"],
        "storage.lake_self_s": self_s["storage.lake"],
        "storage.lake_bytes_end": state["lake_bytes"],
        "query.archive_self_s": self_s["query.archive"],
        "query.online_self_s": self_s["query.online"],
        "query.rollup_self_s": self_s["query.rollup"],
        "query.plan_self_s": self_s["query.plan"],
        "query.execute_self_s": self_s["query.execute"],
        "query.calls": counts["query.calls"],
        "query.rows_returned": counts["query.rows_returned"],
        "query.parts_scanned": prog["query.parts_scanned"],
        "query.parts_pruned": prog["ocean.parts_pruned"],
        "query.groups_decoded": prog["query.groups_decoded"],
        "query.groups_pruned": prog["query.groups_pruned"],
        "query.rowgroup_cache_hit_ratio": _ratio(
            prog["query.cache_hits"],
            prog["query.cache_hits"] + prog["query.cache_misses"],
        ),
        "query.rowgroup_cache_evictions": prog["query.cache_evictions"],
        "serve.submit_self_s": self_s["serve.submit"],
        "serve.requests": calls["serve.submit"],
        "serve.cache_hit_ratio": _ratio(
            prog.get("serve.cache.hits", 0),
            prog.get("serve.cache.hits", 0) + prog.get("serve.cache.misses", 0),
        ),
        "serve.cache_invalidated": prog.get("serve.cache.invalidated", 0),
        "serve.cache_over_invalidated": prog.get("serve.cache.over_invalidated", 0),
        "serve.shed": prog.get("serve.shed", 0),
        "serve.errors": prog.get("serve.errors", 0),
        "serve.hit_p50_us": _p(by_label["status:cached"], 50) * 1e3,
        "serve.miss_p50_ms": _p(by_label["status:ok"], 50),
        "serve.stall_max_ms": max(by_label["status:stalled"], default=0.0),
        "apps.endpoint_self_s": self_s["layer:apps"],
        "lineage.record_self_s": self_s["lineage.record"],
        "lineage.record_calls": calls["lineage.record"],
        "lineage.nodes_end": state["lineage_nodes"],
        "lineage.edges_end": state["lineage_edges"],
        "obs.spans_finished": prog["obs.spans_finished"],
        "obs.spans_dropped": prog["obs.spans_dropped"],
        "trace.overhead_ratio": traced.wall_s / serial.wall_s,
        "trace.spans": len(spans),
    }
    for cls in spec.PANEL_CLASSES:
        out[f"query.{cls}_p50_ms"] = _p(by_label[cls], 50)
    for endpoint in spec.ENDPOINT_WEIGHTS:
        out[f"apps.{endpoint}_p50_ms"] = _p(durations[f"apps.{endpoint}"], 50)
    for name in spec.TOGGLES:
        out[f"core.toggle_{name}_x"] = toggles[name]["x_bare"] if toggles else 0.0
    return {name: float(value) for name, value in out.items()}


def run_once(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one workload once; the full result record (see the README)."""
    shape_name = "smoke" if smoke else "full"
    shapes = spec.SHAPES[shape_name]
    workload = workloads(shapes)[name]
    inputs = workload.inputs(seed)
    tracer = None
    toggles = None
    peak_rss_mb = 0.0

    reps: list[Rep] = []

    def repeat(mode: str, tracer: Tracer | None = None) -> Rep:
        if reps:
            reps[-1].deployment = None  # one store in memory at a time
        reps.append(workload.rep(inputs, mode, tracer))
        return reps[-1]

    if trace:
        default = repeat("default")
        serial = repeat("serial")
        tracer = Tracer()
        with tracer.installed():
            traced = repeat("serial", tracer)
    else:
        measured = 0.0
        min_reps = 2 if smoke else spec.MIN_REPS
        while len(reps) < min_reps or (
            measured < seconds and len(reps) < spec.MAX_REPS
        ):
            measured += repeat("default").wall_s
            if len(reps) == min_reps:
                # The high-water mark creeps up with every repetition;
                # read it where every run has been, not where this one
                # happened to stop.
                peak_rss_mb = _max_rss_mb()

    # Output checks, all outside the timed regions: every repetition
    # (whatever its mode) gave the same logical outputs, a pinned digest
    # where one exists, and the baseline-mode reference sample.
    digest = reps[0].digest
    mismatches = sum(rep.digest != digest for rep in reps)
    expected = spec.load_expected().get(f"{shape_name}/{name}/{seed}")
    mismatches += expected is not None and expected != digest
    mismatches += workload.reference_mismatches(inputs, reps[-1])
    reps[-1].deployment = None
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps) + mismatches

    if trace:
        if not workload.features:  # the bare data plane: the table's base
            toggles = toggle_table(seed, shapes["toggles"])
        values = per_layer(
            default, serial, traced, tracer, toggles, failed / attempted
        )
        metrics = {k: {"value": v} for k, v in values.items()}
    else:
        metrics = end_to_end(reps, peak_rss_mb)
    shutdown_scan_pool()

    units = {
        m["name"]: m["unit"]
        for m in spec.load_benchmark()["per_layer" if trace else "end_to_end"]
    }
    if set(units) != set(metrics):
        raise SystemExit(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}"
        )
    for metric, unit in units.items():
        metrics[metric]["unit"] = unit
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape_name": shape_name,
        "shape": workload.shape,
        "modes": resolved_modes(),
        "reps": len(reps),
        "digest": digest,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "toggle_table": toggles,
        "spans": tracer.spans if tracer is not None else None,
    }
