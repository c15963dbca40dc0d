"""End-to-end data-plane benchmark: fast path vs. serial baseline.

Runs the same fixed-seed multi-window :meth:`ODAFramework.run` twice —
once with the default (batched, memoized) data plane and once with the
same ``DataPlaneOptions()`` under :func:`repro.perf.baseline_mode`
(every fast-path cache and the vectorized emitters disabled) — asserts
the outputs are identical, and
writes ``BENCH_e2e.json`` at the repo root with wall time, rows/s,
bytes/s, the per-stage :data:`repro.perf.PERF` breakdown for both
configurations, and the speedup.

A third interleaved configuration — the fast path with the obs tracer
and metrics switched off — yields the observability overhead ratio
(``obs_overhead``), and its outputs are asserted identical too.

Repetitions are interleaved (baseline, fast, fast_noobs, ...) and
summarized by medians so a noisy neighbour during one run cannot skew
the ratio.  Usage::

    PYTHONPATH=src python benchmarks/bench_e2e.py            # full shape
    PYTHONPATH=src python benchmarks/bench_e2e.py --quick    # CI-sized
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import DataPlaneOptions, ODAFramework
from repro.obs import METRICS, TRACER
from repro.perf import PERF, baseline_mode, reset_all
from repro.telemetry import COMPASS, synthetic_job_mix

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Per-stage timers worth reporting (everything else is still in the
#: snapshot; these are the headline hops of the ingest path).
HEADLINE_TIMERS = (
    "window.total",
    "telemetry.emit",
    "stream.produce",
    "stream.fetch",
    "refine.bronze",
    "refine.silver",
    "refine.gold",
    "tier.ingest",
    "columnar.encode_group",
)


def run_once(machine, allocation, n_windows, window_s, *, baseline, obs=True):
    """One full multi-window run; returns (wall_s, summaries, footprint,
    perf snapshot).  ``obs=False`` switches the tracer and metrics off
    for the run — the no-observability control the overhead ratio is
    measured against."""
    reset_all()
    TRACER.enabled = obs
    METRICS.enabled = obs
    try:
        with ODAFramework(
            machine, allocation, seed=7, options=DataPlaneOptions()
        ) as fw:
            t0 = time.perf_counter()
            if baseline:
                with baseline_mode():
                    summaries = fw.run(0.0, n_windows * window_s, window_s)
            else:
                summaries = fw.run(0.0, n_windows * window_s, window_s)
            wall_s = time.perf_counter() - t0
            footprint = fw.tier_footprint()
    finally:
        TRACER.enabled = True
        METRICS.enabled = True
    return wall_s, summaries, footprint, PERF.snapshot()


def summarize(walls, summaries, footprint, snapshot, label):
    rows = sum(s.bronze_rows for s in summaries)
    raw_bytes = sum(s.raw_bytes for s in summaries)
    wall = statistics.median(walls)
    return {
        "config": label,
        "repeats": len(walls),
        "wall_s_median": wall,
        "wall_s_all": walls,
        "bronze_rows": rows,
        "raw_bytes": raw_bytes,
        "rows_per_s": rows / wall if wall else 0.0,
        "bytes_per_s": raw_bytes / wall if wall else 0.0,
        "tier_footprint": footprint,
        "stages": {
            name: snapshot["timers"][name]
            for name in HEADLINE_TIMERS
            if name in snapshot["timers"]
        },
        "perf": snapshot,
    }


#: --check-against gate: a stage regresses when its fast/baseline time
#: ratio worsens by more than this factor vs. the committed report.
#: Ratios (not absolute seconds) are compared so a CI-sized smoke run
#: can be held against the committed full-shape numbers.
CHECK_TOLERANCE = 1.10
#: Stages cheaper than this in the smoke run are pure timer noise: a
#: quick-shape stage of a few tens of milliseconds swings by half under
#: CI load, so the gate only judges stages with real absolute weight.
CHECK_MIN_STAGE_S = 0.02
#: At the smoke shape the content-addressed memos barely warm up, so
#: memo-driven stages legitimately decay to fast ~= baseline parity;
#: a ratio within this absolute bound is parity noise, not regression.
CHECK_PARITY_SLACK = 1.25


def host_record() -> dict:
    """Where the report was measured."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def stage_gate_skip_reason(report, committed) -> str | None:
    """Why the two reports' stage ratios cannot be compared, or None: a
    report that does not say where it ran cannot be assumed to match."""
    ref, new = committed.get("host"), report.get("host")
    if not ref or not new:
        which = "committed report" if not ref else "this run"
        return f"{which} carries no host record"
    return None


def check_against(report, committed) -> list[str]:
    """Compare ``report`` with a committed ``BENCH_e2e.json``; return a
    list of human-readable failures (empty = gate passes).

    ``outputs_identical`` is always enforced; the stage-ratio comparison
    only when both reports carry a host record."""
    failures = []
    if not committed.get("outputs_identical"):
        failures.append("committed report has outputs_identical != true")
    if not report.get("outputs_identical"):
        failures.append("this run has outputs_identical != true")
    if stage_gate_skip_reason(report, committed) is not None:
        return failures

    def stage_s(cfg, stage):
        entry = cfg.get("stages", {}).get(stage)
        return entry["total_s"] if entry else None

    for stage in HEADLINE_TIMERS:
        ref_base = stage_s(committed.get("baseline", {}), stage)
        ref_fast = stage_s(committed.get("fast", {}), stage)
        if ref_base is None or ref_fast is None:
            continue  # stage did not exist when the report was committed
        new_base = stage_s(report["baseline"], stage)
        new_fast = stage_s(report["fast"], stage)
        if new_base is None or new_fast is None:
            failures.append(f"stage {stage!r} missing from this run")
            continue
        if max(new_base, new_fast) < CHECK_MIN_STAGE_S:
            continue
        ref_ratio = ref_fast / ref_base if ref_base else float("inf")
        new_ratio = new_fast / new_base if new_base else float("inf")
        # Memo hit rates (and so the achievable ratio) scale with run
        # shape, so a smoke run is held to the committed ratio OR to
        # near-parity — whichever is looser.  A stage whose fast path
        # falls clearly behind its own baseline always fails.
        if new_ratio > max(ref_ratio * CHECK_TOLERANCE, CHECK_PARITY_SLACK):
            failures.append(
                f"stage {stage!r} regressed: fast/baseline ratio "
                f"{new_ratio:.3f} vs committed {ref_ratio:.3f} "
                f"(tolerance {CHECK_TOLERANCE:.2f}x)"
            )
    return failures


def check_identical(base, fast):
    base_summaries, base_footprint = base
    fast_summaries, fast_footprint = fast
    if base_summaries != fast_summaries:
        raise AssertionError("fast path diverged from baseline summaries")
    if base_footprint != fast_footprint:
        raise AssertionError(
            "fast path diverged from baseline tier footprint: "
            f"{base_footprint} != {fast_footprint}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--windows", type=int, default=None,
                        help="number of ingest windows (default 40; 4 quick)")
    parser.add_argument("--window-s", type=float, default=15.0)
    parser.add_argument("--nodes", type=int, default=None,
                        help="fleet size (default 32; 16 quick)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="interleaved repetitions (default 5; 1 quick)")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized defaults: 4 windows, 16 nodes, 1 repetition "
        "(explicit flags still win)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_e2e.json",
        help="output JSON path (default: repo-root BENCH_e2e.json)",
    )
    parser.add_argument(
        "--check-against",
        type=Path,
        default=None,
        metavar="PATH",
        help="committed BENCH_e2e.json to gate against: fail (exit 1) if "
        "outputs diverge or any headline stage's fast/baseline ratio "
        "regresses beyond the tolerance (ratios are compared only when "
        "both reports carry a host record)",
    )
    args = parser.parse_args(argv)
    defaults = (4, 16, 1) if args.quick else (40, 32, 5)
    args.windows = defaults[0] if args.windows is None else args.windows
    args.nodes = defaults[1] if args.nodes is None else args.nodes
    args.repeat = defaults[2] if args.repeat is None else args.repeat
    for name in ("windows", "nodes", "repeat"):
        if getattr(args, name) < 1:
            parser.error(f"--{name} must be >= 1")
    if args.window_s <= 0:
        parser.error("--window-s must be positive")

    machine = COMPASS.scaled(args.nodes)
    horizon = args.windows * args.window_s
    allocation = synthetic_job_mix(
        machine, 0.0, horizon, np.random.default_rng(42)
    )

    walls = {"baseline": [], "fast": [], "fast_noobs": []}
    last = {}
    for rep in range(args.repeat):
        for label, is_base, obs in (
            ("baseline", True, True),
            ("fast", False, True),
            ("fast_noobs", False, False),
        ):
            wall, summaries, footprint, snap = run_once(
                machine, allocation, args.windows, args.window_s,
                baseline=is_base, obs=obs,
            )
            walls[label].append(wall)
            last[label] = (summaries, footprint, snap)
            print(f"rep {rep + 1}/{args.repeat}  {label:10s} {wall:7.3f}s")

    check_identical(
        (last["baseline"][0], last["baseline"][1]),
        (last["fast"][0], last["fast"][1]),
    )
    # Observability must be output-invariant, not only cheap.
    check_identical(
        (last["fast"][0], last["fast"][1]),
        (last["fast_noobs"][0], last["fast_noobs"][1]),
    )

    configs = {
        label: summarize(
            walls[label], last[label][0], last[label][1], last[label][2], label
        )
        for label in ("baseline", "fast", "fast_noobs")
    }
    # Pair each repetition's baseline with the fast run that immediately
    # followed it: the box's slow drift (thermal state, cache pressure)
    # cancels within a pair, so the median of per-pair ratios is steadier
    # than the ratio of medians.  Both raw medians stay in the report.
    per_rep = [
        b / f if f else float("inf")
        for b, f in zip(walls["baseline"], walls["fast"])
    ]
    speedup = statistics.median(per_rep)
    # Obs overhead, same pairing logic: tracing+metrics on vs. off.
    obs_per_rep = [
        w / n - 1.0 if n else float("inf")
        for w, n in zip(walls["fast"], walls["fast_noobs"])
    ]
    obs_overhead = statistics.median(obs_per_rep)
    report = {
        "bench": "e2e_data_plane",
        "shape": {
            "machine": machine.name,
            "nodes": args.nodes,
            "windows": args.windows,
            "window_s": args.window_s,
            "repeat": args.repeat,
            "seed_allocation": 42,
            "seed_framework": 7,
        },
        "host": host_record(),
        "outputs_identical": True,
        "speedup": speedup,
        "speedup_per_rep": per_rep,
        "obs_overhead": obs_overhead,
        "obs_overhead_per_rep": obs_per_rep,
        "baseline": configs["baseline"],
        "fast": configs["fast"],
        "fast_noobs": configs["fast_noobs"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nbaseline {configs['baseline']['wall_s_median']:.3f}s  "
        f"fast {configs['fast']['wall_s_median']:.3f}s  "
        f"speedup {speedup:.2f}x  "
        f"obs overhead {obs_overhead * 100:+.1f}%  -> {args.out}"
    )
    if args.check_against is not None:
        committed = json.loads(args.check_against.read_text())
        failures = check_against(report, committed)
        skipped = stage_gate_skip_reason(report, committed)
        if skipped is not None:
            print(f"stage-ratio check skipped: {skipped}")
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}")
            return 1
        print(f"check vs {args.check_against}: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
