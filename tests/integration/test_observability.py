"""End-to-end observability: one trace spanning every hop, deterministically.

The acceptance contract of the obs layer:

* a seeded run emits a span tree linking producer -> consumer ->
  medallion stages -> tier writes -> query execution for each window,
* two same-seed runs emit byte-identical trace IDs and structure
  (durations excluded),
* the self-telemetry loop lands in the lake and the UA dashboard renders
  a finding from it,
* tracing does not perturb outputs (fast path == serial baseline with
  the tracer on).
"""

import numpy as np
import pytest

from repro.apps.ua_dashboard import UserAssistanceDashboard
from repro.core import DataPlaneOptions, ODAFramework
from repro.obs import TRACER, reset_all, span_tree
from repro.perf import baseline_mode
from repro.telemetry import MINI, synthetic_job_mix


def run_observed(n_windows=2, window_s=30.0, options=None):
    reset_all()
    allocation = synthetic_job_mix(
        MINI, 0.0, 600.0, np.random.default_rng(11)
    )
    opts = options or DataPlaneOptions(self_telemetry=True)
    with ODAFramework(MINI, allocation, seed=5, options=opts) as fw:
        summaries = fw.run(0.0, n_windows * window_s, window_s)
        # A planned archive query inside its own deterministic trace:
        # the read plane joins the same observability fabric.
        with TRACER.trace(seed=5, name="query", index=0):
            fw.tiers.query_archive("power.bronze", 0.0, n_windows * window_s)
    return fw, summaries


@pytest.fixture(scope="module")
def observed_run():
    fw, summaries = run_observed()
    spans = TRACER.finished()
    return fw, summaries, spans, span_tree(spans)


def _children(node, name):
    return [c for c in node["children"] if c["name"] == name]


class TestSpanTreeLinksAllHops:
    def test_one_trace_per_window_plus_query(self, observed_run):
        _, summaries, spans, roots = observed_run
        window_roots = [r for r in roots if r["name"] == "window"]
        assert len(window_roots) == len(summaries)
        assert [r["name"] for r in roots if r["name"] == "query"] == ["query"]
        assert all(s.parent_id == "" or s.parent_id for s in spans)

    def test_window_links_produce_consume_refine_tier(self, observed_run):
        *_, roots = observed_run
        (window,) = [
            r for r in roots
            if r["name"] == "window" and r["attrs"]["window"] == 0
        ]

        # Producer hop: one produce span per non-empty topic.
        produces = _children(window, "stream.produce")
        assert {p["attrs"]["topic"] for p in produces} >= {"power", "syslog"}

        # Consumer + medallion hops, nested under the per-topic task span.
        (power,) = _children(window, "refine:power")
        (fetch,) = _children(power, "stream.fetch")
        assert fetch["attrs"]["topic"] == "power"
        for stage in ("refine.bronze", "refine.silver", "refine.gold"):
            (node,) = _children(power, stage)
            assert node["attrs"]["rows_in"] >= 0

        # Tier-write hop.
        tier_writes = {
            c["name"] for c in window["children"]
            if c["name"].startswith("tier.ingest:")
        }
        assert "tier.ingest:power.bronze" in tier_writes
        assert "tier.ingest:power.silver" in tier_writes

    def test_syslog_fanout_and_facility_are_traced(self, observed_run):
        *_, roots = observed_run
        window = [r for r in roots if r["name"] == "window"][0]
        for name in ("consume:log-index", "consume:copacetic",
                     "refine:facility"):
            assert _children(window, name), f"missing {name}"

    def test_query_trace_reaches_executor(self, observed_run):
        *_, roots = observed_run
        (query,) = [r for r in roots if r["name"] == "query"]
        (archive,) = _children(query, "query.archive")
        assert archive["attrs"]["dataset"] == "power.bronze"
        (execute,) = _children(archive, "query.execute")
        assert execute["attrs"]["table"] == "power.bronze"

    def test_self_telemetry_is_traced(self, observed_run):
        *_, roots = observed_run
        window = [r for r in roots if r["name"] == "window"][0]
        (loop,) = _children(window, "obs.self_telemetry")
        names = {c["name"] for c in loop["children"]}
        assert "stream.produce" in names
        assert "tier.ingest:oda_health.silver" in names


def _structure(spans):
    """The replay-comparable projection of a span list (no durations,
    order-insensitive: completion order is thread-scheduling noise)."""
    return sorted(
        (s.trace_id, s.span_id, s.parent_id, s.name, s.seq,
         tuple(sorted(s.attrs.items())))
        for s in spans
    )


def test_same_seed_runs_are_byte_identical():
    run_observed()
    first = _structure(TRACER.finished())
    run_observed()
    second = _structure(TRACER.finished())
    assert first == second
    assert len(first) > 50


def test_dashboard_renders_self_telemetry():
    fw, _ = run_observed()
    health = fw.tiers.query_online("oda_health.silver")
    assert health.num_rows >= 2
    dash = UserAssistanceDashboard(fw.tiers.lake, fw.allocation)
    findings = dash.framework_health()
    assert len(findings) >= 1
    assert findings[0].code in (
        "pipeline-healthy", "obs-data-loss", "refinement-stalled",
    )


def test_tracing_preserves_baseline_equivalence():
    """Outputs with the tracer live must equal those of the same
    framework run under ``baseline_mode()`` — observability is not
    allowed to touch the data plane."""
    reset_all()
    allocation = synthetic_job_mix(MINI, 0.0, 600.0, np.random.default_rng(11))
    with ODAFramework(MINI, allocation, seed=5) as fast:
        fast_summaries = fast.run(0.0, 60.0, 30.0)
        fast_footprint = fast.tier_footprint()
    assert len(TRACER.finished()) > 0  # the tracer really was live
    reset_all()
    with ODAFramework(MINI, allocation, seed=5) as base:
        with baseline_mode():
            base_summaries = base.run(0.0, 60.0, 30.0)
        base_footprint = base.tier_footprint()
    assert fast_summaries == base_summaries
    assert fast_footprint == base_footprint
    reset_all()
