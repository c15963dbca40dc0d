"""What the benchmark measures and at which sizes.

``BENCHMARK.json`` at the repository root names the workloads and
metrics; this module loads it (so names, units and bounds have one
source) and fixes the workload shapes.  Shapes are constants, not
options: a number is comparable only with numbers of the same shape, and
every result file records the shape it ran.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

#: Silver interval and ingest window, seconds of simulated time.
WINDOW_S = 15.0

#: The real feature set (``ingest_managed``, ``query_panel``, ``serve_mixed``).
MANAGED = {"lifecycle": True, "lineage": True, "self_telemetry": True, "shards": 3}

#: One option at a time on top of the bare data plane (the toggle table).
TOGGLES = {
    "lifecycle": {"lifecycle": True},
    "lineage": {"lineage": True},
    "self_telemetry": {"self_telemetry": True},
    "shards3": {"shards": 3},
}

#: Classes of the query panel with their count per round.  One heavy
#: scan per round carries most of the wall; the light classes carry the
#: median.
PANEL_CLASSES = {
    "narrow_window": 12,
    "node_history": 8,
    "bronze_scan": 1,
    "recent_window": 12,
    "online_window": 12,
    "rollup": 4,
    "io_history": 4,
}

#: Gateway endpoints with their weight in the offered load.
ENDPOINT_WEIGHTS = {
    "system_power_view": 3.0,
    "job_overview": 4.0,
    "job_power_profile": 2.0,
    "top_jobs_by_energy": 1.0,
    "cooling_plant_view": 2.0,
    "fleet_power": 1.0,
    "archived_power_usage": 2.0,
}

#: Workload shapes.  ``full`` is what ``BENCHMARK.json`` runs; ``smoke``
#: is the self-test's (seconds, not minutes; its numbers mean nothing).
SHAPES = {
    "full": {
        # warm windows (set-up) + windows of one fw.run (throughput) +
        # windows driven one at a time (freshness latency)
        "ingest_bare": {"nodes": 64, "warm": 10, "windows": 40, "single": 30, "reference": 3},
        "ingest_managed": {"nodes": 64, "warm": 5, "windows": 12, "single": 21, "reference": 3},
        # 2 ticks leave one compacted part + 30 single-window parts per
        # dataset; power.bronze decodes to ~81 MB, over the 64 MiB
        # row-group cache, everything else fits.
        "query_panel": {"nodes": 64, "windows": 150, "lifecycle_every_s": 900.0, "rounds": 14},
        "serve_mixed": {"nodes": 64, "warm": 20, "rounds": 25, "requests_per_round": 60},
        "toggles": {"nodes": 64, "windows": 20, "reps": 3},
    },
    "smoke": {
        "ingest_bare": {"nodes": 8, "warm": 2, "windows": 6, "single": 3, "reference": 2},
        "ingest_managed": {"nodes": 8, "warm": 2, "windows": 6, "single": 3, "reference": 2},
        "query_panel": {"nodes": 8, "windows": 12, "lifecycle_every_s": 90.0, "rounds": 2},
        "serve_mixed": {"nodes": 8, "warm": 4, "rounds": 4, "requests_per_round": 30},
        "toggles": {"nodes": 8, "windows": 4, "reps": 2},
    },
}

#: Repetitions of one run: at least MIN_REPS, then until the timed
#: regions add up to ``--seconds``, never more than MAX_REPS.
MIN_REPS = 3
MAX_REPS = 12


def load_benchmark() -> dict:
    """``BENCHMARK.json`` as a dict."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    """Pinned output digests, keyed ``shape/workload/seed``."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (the value itself for a single sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3
