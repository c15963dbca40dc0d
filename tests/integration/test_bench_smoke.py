"""Tier-1 bench smoke: the quick-shape serving bench must run and keep
every seed-pure property (outputs identical across configurations,
digests, shed/hit counts).

Nothing here compares wall-clock times: inside ``pytest -x`` a timer
gate fails on a loaded box and on any host other than the one that
committed the report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_SERVING = REPO_ROOT / "BENCH_serving.json"


def _shed_free_below_knee(report):
    """Every level at or below the knee sheds nothing (cache on)."""
    knee = report["knee_offered_qps"]
    below = [
        row for row in report["levels"] if row["offered_qps"] <= knee
    ]
    assert below, "knee not among the swept levels"
    for row in below:
        assert row["cache_on"]["shed_rate"] == 0.0


@pytest.mark.skipif(
    not COMMITTED_SERVING.exists(), reason="no committed serving report"
)
def test_committed_serving_report_records_cache_win():
    """The committed full-shape report must carry the PR claim: p99 at
    the highest sustained (zero-shed) level improves >2x with the cache
    on, every answer byte-identical across configurations, shedding
    deterministic, and each level stamped with a seeded replay digest."""
    report = json.loads(COMMITTED_SERVING.read_text())
    assert report["outputs_identical"] is True
    assert report["shed_identical_across_configs"] is True
    assert report["p99_speedup_at_highest_sustained"] > 2.0
    assert report["p50_speedup_at_highest_sustained"] > 1.0
    for row in report["levels"]:
        assert row["replay_digest"]
    _shed_free_below_knee(report)


def test_bench_serving_smoke_gate(tmp_path):
    """Quick-shape run of the serving bench: no shedding below the
    knee, the cache warms, digests and shed decisions identical across
    configurations."""
    out = tmp_path / "serving_smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_serving.py"),
            "--quick",
            "--out",
            str(out),
        ],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert report["outputs_identical"] is True
    assert report["shed_identical_across_configs"] is True
    _shed_free_below_knee(report)
    hit = report["levels"][-1]["cache_on"]["hit_rate"]
    assert hit > 0.5, f"cache barely warming: hit_rate={hit}"
