"""Read-plane benchmark: planned scans vs. decode-everything baseline.

Builds a tiered store with months of synthetic power telemetry split
across many OCEAN parts (plus the LAKE's online window), then times a
panel of dashboard-style selective queries two ways:

* ``baseline`` — :func:`repro.perf.baseline_mode`: every part fetched,
  every row group decoded in full, predicate applied at the end (the
  pre-planner behaviour),
* ``serial`` — the scan planner (manifest + row-group pruning, dict-code
  pushdown, late materialization, row-group cache).

Every query's output must be identical across the two configurations;
repetitions are interleaved and summarized by the median of per-rep
ratios, as in ``bench_e2e.py``.

A second phase measures the tier lifecycle's compaction win: the same
selective queries on a small-object sprawl store before and after
``TieredStore.compact`` (byte-identical outputs required), reported
under the ``compaction`` key.  Writes ``BENCH_query.json``::

    PYTHONPATH=src python benchmarks/bench_query.py            # full shape
    PYTHONPATH=src python benchmarks/bench_query.py --quick    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.columnar import ColumnTable
from repro.columnar.predicate import Col, IsIn
from repro.obs import METRICS
from repro.perf import baseline_mode, reset_all
from repro.storage import DataClass, TierPolicy, TieredStore
from repro.storage.tiers import DAY_S

from bench_e2e import host_record  # sibling script: run as a file, not -m

REPO_ROOT = Path(__file__).resolve().parent.parent

DATASET = "power.silver"
PROJECTS = np.array(["PRJA", "PRJB", "PRJC", "PRJD", "PRJE"], dtype=object)

#: Scan counters worth reporting per configuration.
HEADLINE_COUNTERS = (
    "ocean.parts_pruned",
    "query.parts_scanned",
    "query.groups_pruned",
    "query.groups_decoded",
    "query.cache_hits",
    "query.cache_misses",
    "query.dict_pushdowns",
)


def build_store(n_parts, rows_per_part, row_group_size, rng):
    """A silver dataset: ``n_parts`` hourly OCEAN parts + LAKE copies."""
    store = TieredStore(
        policies={
            DataClass.SILVER: TierPolicy(
                lake_retention_s=365 * DAY_S,
                ocean_retention_s=5 * 365 * DAY_S,
                glacier=True,
                row_group_size=row_group_size,
            )
        }
    )
    store.register(DATASET, DataClass.SILVER)
    part_span = 3600.0
    for i in range(n_parts):
        t0 = i * part_span
        n = rows_per_part
        power = rng.normal(320.0, 60.0, n)
        power[rng.random(n) < 0.02] = np.nan  # sensor dropouts
        table = ColumnTable(
            {
                "timestamp": np.sort(rng.uniform(t0, t0 + part_span, n)),
                "node": rng.integers(0, 64, n).astype(float),
                "input_power": power,
                "project": PROJECTS[rng.integers(0, len(PROJECTS), n)],
            }
        )
        store.ingest(DATASET, table, now=t0)
    return store, n_parts * part_span


def query_panel(horizon_s):
    """(name, callable(store)) — the dashboard-style workload."""
    mid = horizon_s / 2.0

    def narrow_window(store):
        # One hour out of the whole archive: manifests exclude all but
        # one or two parts without a fetch.
        return store.query_archive(DATASET, mid, mid + 3600.0)

    def project_slice(store):
        # Selective string predicate + projection: dict-code pushdown
        # and late materialization carry this one.
        return store.query_archive(
            DATASET,
            predicate=Col("project") == "PRJC",
            columns=["timestamp", "input_power"],
        )

    def node_window(store):
        # Window + numeric predicate + projection combined.
        return store.query_archive(
            DATASET,
            mid,
            mid + 4 * 3600.0,
            predicate=IsIn("node", (3.0, 7.0)),
            columns=["timestamp", "node", "input_power"],
        )

    def repeat_window(store):
        # The interactive case: the same window twice in a row — the
        # second pass should ride the decoded-row-group cache.
        store.query_archive(DATASET, mid, mid + 3600.0)
        return store.query_archive(DATASET, mid, mid + 3600.0)

    def lake_window(store):
        # Online path: the LAKE query now runs through the same planner.
        return store.query_online(
            DATASET,
            mid,
            mid + 1800.0,
            predicate=Col("input_power") > 400.0,
            columns=["timestamp", "node", "input_power"],
        )

    return [
        ("narrow_window", narrow_window),
        ("project_slice", project_slice),
        ("node_window", node_window),
        ("repeat_window", repeat_window),
        ("lake_window", lake_window),
    ]


def run_config(store, panel, label):
    """Time every query once under one configuration."""
    reset_all()
    walls, outputs = {}, {}
    for name, fn in panel:
        if label == "baseline":
            with baseline_mode():
                t0 = time.perf_counter()
                out = fn(store)
                walls[name] = time.perf_counter() - t0
        else:
            t0 = time.perf_counter()
            out = fn(store)
            walls[name] = time.perf_counter() - t0
        outputs[name] = out
    counters = {
        n: METRICS.counter(n)
        for n in HEADLINE_COUNTERS
        if METRICS.counter(n)
    }
    return walls, outputs, counters


def check_identical(panel, base_outputs, outputs, label):
    for name, _ in panel:
        if outputs[name] != base_outputs[name]:
            raise AssertionError(
                f"{label} output for {name!r} diverged from baseline"
            )


def sprawl_panel():
    """Full-horizon selective queries — the workload small-object sprawl
    hurts.  Time-windowed queries stay out: hourly parts already prune
    those at the manifest level, compacted or not (that is the main
    panel's story).  Here every part survives part-level pruning, so
    the pre-compaction store pays per-object costs (a fetch, a footer
    parse, a plan unit, ragged final row groups) once per part."""

    def project_history(store):
        return store.query_archive(
            DATASET,
            predicate=Col("project") == "PRJC",
            columns=["timestamp", "input_power"],
        )

    def node_history(store):
        return store.query_archive(
            DATASET,
            predicate=IsIn("node", (3.0, 7.0)),
            columns=["timestamp", "node", "input_power"],
        )

    def hot_rows(store):
        return store.query_archive(
            DATASET,
            predicate=Col("input_power") > 450.0,
            columns=["timestamp", "node", "input_power"],
        )

    return [
        ("project_history", project_history),
        ("node_history", node_history),
        ("hot_rows", hot_rows),
    ]


def run_compaction_phase(args):
    """Time selective archive queries on a small-object sprawl store,
    compact it, and time them again.

    The sprawl shape (many small ragged parts) is what streaming ingest
    leaves behind; the lifecycle compactor's one time-clustered part
    with full row groups should serve the same queries faster — with
    byte-identical outputs, which this phase asserts every rep.
    """
    # Parts far smaller than a row group — the sprawl streaming ingest
    # actually leaves behind (every part a single ragged group).
    parts, rows = (32, 1000) if args.quick else (256, 750)
    rng = np.random.default_rng(5678)
    store, _ = build_store(parts, rows, args.row_group, rng)
    panel = sprawl_panel()

    def time_panel():
        walls = {name: [] for name, _ in panel}
        outputs = {}
        for _ in range(args.repeat):
            reset_all()
            for name, fn in panel:
                t0 = time.perf_counter()
                out = fn(store)
                walls[name].append(time.perf_counter() - t0)
                outputs[name] = out
        return walls, outputs

    pre_walls, pre_outputs = time_panel()
    merged = store.compact(DATASET, min_objects=2)
    parts_after = len(store.ocean.list(store.OCEAN_BUCKET, prefix=f"{DATASET}/"))
    post_walls, post_outputs = time_panel()
    check_identical(panel, pre_outputs, post_outputs, "post-compaction")

    queries = {}
    for name, _ in panel:
        ratios = [
            pre / post if post else float("inf")
            for pre, post in zip(pre_walls[name], post_walls[name])
        ]
        queries[name] = {
            "wall_s_median_pre": statistics.median(pre_walls[name]),
            "wall_s_median_post": statistics.median(post_walls[name]),
            "speedup": statistics.median(ratios),
        }
    overall = statistics.median([q["speedup"] for q in queries.values()])
    print(f"\ncompaction phase ({parts} parts -> {parts_after}):")
    for name, q in queries.items():
        print(f"  {name:15s} post-compaction {q['speedup']:6.2f}x")
    return {
        "shape": {
            "parts": parts,
            "rows_per_part": rows,
            "row_group_size": args.row_group,
            "repeat": args.repeat,
            "seed": 5678,
        },
        "parts_before": merged["merged"],
        "parts_after": parts_after,
        "bytes_before": merged["bytes_before"],
        "bytes_after": merged["bytes_after"],
        "outputs_identical": True,
        "speedup_median": overall,
        "queries": queries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parts", type=int, default=None,
                        help="OCEAN parts to ingest (default 24; 8 quick)")
    parser.add_argument("--rows", type=int, default=None,
                        help="rows per part (default 40000; 4000 quick)")
    parser.add_argument("--row-group", type=int, default=4096,
                        help="row-group size for archived parts")
    parser.add_argument("--repeat", type=int, default=None,
                        help="interleaved repetitions (default 5; 2 quick)")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized defaults (explicit flags still win)")
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_query.json",
        help="output JSON path (default: repo-root BENCH_query.json)",
    )
    args = parser.parse_args(argv)
    defaults = (8, 4000, 2) if args.quick else (24, 40_000, 5)
    args.parts = defaults[0] if args.parts is None else args.parts
    args.rows = defaults[1] if args.rows is None else args.rows
    args.repeat = defaults[2] if args.repeat is None else args.repeat
    for name in ("parts", "rows", "repeat"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    if args.row_group < 1:
        parser.error("--row-group must be >= 1")

    rng = np.random.default_rng(1234)
    store, horizon_s = build_store(args.parts, args.rows, args.row_group, rng)
    panel = query_panel(horizon_s)
    configs = ("baseline", "serial")

    walls = {label: {name: [] for name, _ in panel} for label in configs}
    last_counters = {}
    for rep in range(args.repeat):
        rep_outputs = {}
        for label in configs:
            w, outputs, counters = run_config(store, panel, label)
            for name, wall in w.items():
                walls[label][name].append(wall)
            rep_outputs[label] = outputs
            last_counters[label] = counters
            total = sum(w.values())
            print(f"rep {rep + 1}/{args.repeat}  {label:9s} {total:7.3f}s")
        check_identical(
            panel, rep_outputs["baseline"], rep_outputs["serial"], "serial"
        )

    queries = {}
    for name, _ in panel:
        per_rep = [
            b / f if f else float("inf")
            for b, f in zip(walls["baseline"][name], walls["serial"][name])
        ]
        queries[name] = {
            "wall_s_median": {
                label: statistics.median(walls[label][name])
                for label in configs
            },
            "speedup_serial": statistics.median(per_rep),
            "outputs_identical": True,
        }
    overall = statistics.median(
        [q["speedup_serial"] for q in queries.values()]
    )
    report = {
        "bench": "query_read_plane",
        "shape": {
            "dataset": DATASET,
            "parts": args.parts,
            "rows_per_part": args.rows,
            "row_group_size": args.row_group,
            "repeat": args.repeat,
            "seed": 1234,
        },
        "host": host_record(),
        "outputs_identical": True,
        "speedup_median": overall,
        "queries": queries,
        "scan_counters": last_counters,
        "compaction": run_compaction_phase(args),
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nmedian speedup {overall:.2f}x  -> {args.out}")
    for name, q in queries.items():
        print(f"  {name:15s} serial {q['speedup_serial']:6.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
