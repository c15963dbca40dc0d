"""Tier-1 bench smokes: the quick-shape benches must run and keep
every seed-pure property (outputs identical across configurations,
digests, shed/hit counts).

Nothing here compares wall-clock times: the stage-ratio gate against
the committed ``BENCH_e2e.json`` is ``make bench-e2e-smoke``, where a
human on a known host reads it — inside ``pytest -x`` it failed on a
loaded box and on any host other than the one that committed the
report.  The ``check_against`` comparator itself is unit-tested below
on synthetic reports, so its failure modes are covered without a timer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.bench_e2e import (
    CHECK_MIN_STAGE_S,
    check_against,
    stage_gate_skip_reason,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED_QUERY = REPO_ROOT / "BENCH_query.json"
COMMITTED_SERVING = REPO_ROOT / "BENCH_serving.json"


HOST = {"cpu_count": 1, "python": "3.11.0", "numpy": "1.26.0"}


def _report(stages_base, stages_fast, identical=True, host=HOST):
    def cfg(stages):
        return {
            "stages": {
                k: {"total_s": v, "calls": 1, "max_s": v}
                for k, v in stages.items()
            }
        }

    report = {
        "outputs_identical": identical,
        "baseline": cfg(stages_base),
        "fast": cfg(stages_fast),
    }
    if host is not None:
        report["host"] = host
    return report


class TestCheckAgainstComparator:
    def test_identical_reports_pass(self):
        r = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.4})
        assert check_against(r, r) == []

    def test_improvement_passes(self):
        committed = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.5})
        new = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.3})
        assert check_against(new, committed) == []

    def test_fast_losing_to_baseline_fails(self):
        committed = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.5})
        new = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 1.4})
        failures = check_against(new, committed)
        assert len(failures) == 1
        assert "telemetry.emit" in failures[0]

    def test_shape_slack_tolerates_worse_but_winning_ratio(self):
        """Memo hit rates shrink with the smoke shape, so a worse — but
        still <1 — ratio is not a regression."""
        committed = _report(
            {"columnar.encode_group": 1.0}, {"columnar.encode_group": 0.25}
        )
        new = _report(
            {"columnar.encode_group": 1.0}, {"columnar.encode_group": 0.9}
        )
        assert check_against(new, committed) == []

    def test_parity_noise_within_slack_passes(self):
        """Smoke shapes barely warm the memos, so a memo-driven stage
        hovering just over 1.0 is parity noise, not a regression."""
        committed = _report({"tier.ingest": 1.0}, {"tier.ingest": 0.7})
        new = _report({"tier.ingest": 1.0}, {"tier.ingest": 1.1})
        assert check_against(new, committed) == []

    def test_regression_beyond_committed_ratio_fails(self):
        committed = _report({"tier.ingest": 1.0}, {"tier.ingest": 1.1})
        new = _report({"tier.ingest": 1.0}, {"tier.ingest": 1.5})
        assert check_against(new, committed) != []

    def test_missing_stage_fails(self):
        committed = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.5})
        new = _report({}, {})
        failures = check_against(new, committed)
        assert any("missing" in f for f in failures)

    def test_noise_floor_skips_tiny_stages(self):
        committed = _report({"refine.bronze": 1.0}, {"refine.bronze": 0.5})
        eps = CHECK_MIN_STAGE_S / 10.0
        new = _report({"refine.bronze": eps}, {"refine.bronze": eps * 3})
        assert check_against(new, committed) == []

    def test_output_divergence_fails(self):
        r = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.4})
        bad = _report(
            {"telemetry.emit": 1.0}, {"telemetry.emit": 0.4}, identical=False
        )
        assert check_against(bad, r) != []
        assert check_against(r, bad) != []

    def test_no_host_record_skips_ratios(self):
        """A report that does not say where it ran cannot be assumed to
        match.  Output identity is still enforced."""
        committed = {"telemetry.emit": 1.0}, {"telemetry.emit": 0.5}
        losing = {"telemetry.emit": 1.0}, {"telemetry.emit": 6.0}
        for ref_host, new_host, why in (
            (None, HOST, "committed report carries no host record"),
            (HOST, None, "this run carries no host record"),
        ):
            ref = _report(*committed, host=ref_host)
            new = _report(*losing, host=new_host)
            assert why in stage_gate_skip_reason(new, ref)
            assert check_against(new, ref) == []
            diverged = _report(*losing, identical=False, host=new_host)
            assert check_against(diverged, ref) != []

    def test_host_records_compare_ratios(self):
        ref = _report({"telemetry.emit": 1.0}, {"telemetry.emit": 0.5})
        new = _report(
            {"telemetry.emit": 1.0},
            {"telemetry.emit": 6.0},
            host={**HOST, "cpu_count": 64},  # cores alone do not matter
        )
        assert stage_gate_skip_reason(new, ref) is None
        assert check_against(new, ref) != []


def test_bench_e2e_smoke_gate(tmp_path):
    """Quick-shape run: fast path, baseline and obs-off configurations
    produce identical outputs, and the report carries a host record
    (`make bench-e2e-smoke` adds the stage-ratio comparison)."""
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_e2e.py"),
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
    assert set(report["host"]) == {"cpu_count", "python", "numpy"}


@pytest.mark.skipif(
    not COMMITTED_QUERY.exists(), reason="no committed query bench report"
)
def test_committed_query_report_records_compaction_win():
    """The committed full-shape report must carry the lifecycle claim:
    identical outputs and a net post-compaction speedup on the sprawl
    panel.  (The quick-shape smoke below re-proves identity but not the
    speedup — small shapes are timer-noise-bound.)"""
    report = json.loads(COMMITTED_QUERY.read_text())
    assert report["outputs_identical"] is True
    compaction = report["compaction"]
    assert compaction["outputs_identical"] is True
    assert compaction["speedup_median"] > 1.0
    assert compaction["parts_after"] < compaction["parts_before"]


def test_bench_query_smoke_gate(tmp_path):
    """Quick-shape run of the read-plane bench: every query identical
    across baseline/serial, and the compaction phase merges the
    sprawl store with byte-identical answers."""
    out = tmp_path / "query_smoke.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "benchmarks" / "bench_query.py"),
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
    compaction = report["compaction"]
    assert compaction["outputs_identical"] is True
    assert compaction["parts_after"] < compaction["parts_before"]
    assert set(compaction["queries"]) == {
        "project_history", "node_history", "hot_rows",
    }


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
