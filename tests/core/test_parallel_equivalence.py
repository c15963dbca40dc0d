"""The fast data plane must be indistinguishable from the serial baseline.

The fast path — batched emission, every fast-path memo, planned
scans — must produce the same window summaries and the
same bytes in every storage tier as the pre-optimization path a
framework takes inside ``baseline_mode()``, whatever options it was
built with.
"""

import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import DataPlaneOptions, ODAFramework
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import METRICS, TRACER
from repro.perf import baseline_mode, reset_fast_path_caches
from repro.query import cache as rg_cache
from repro.serve import Request
from repro.telemetry import MINI, synthetic_job_mix

N_WINDOWS = 4
WINDOW_S = 30.0


def run_windows(options, baseline=False):
    rng = np.random.default_rng(11)
    allocation = synthetic_job_mix(MINI, 0.0, N_WINDOWS * WINDOW_S, rng)
    fw = ODAFramework(MINI, allocation, seed=3, options=options)
    reset_fast_path_caches()
    try:
        if baseline:
            with baseline_mode():
                summaries = [
                    fw.run_window(w * WINDOW_S, (w + 1) * WINDOW_S)
                    for w in range(N_WINDOWS)
                ]
        else:
            summaries = [
                fw.run_window(w * WINDOW_S, (w + 1) * WINDOW_S)
                for w in range(N_WINDOWS)
            ]
        return fw, summaries
    finally:
        fw.close()


def run_span(options, baseline=False, fault_plan=None):
    """Drive the same four windows through ``ODAFramework.run``,
    optionally with a fault injector wrapped around the OCEAN store."""
    rng = np.random.default_rng(11)
    allocation = synthetic_job_mix(MINI, 0.0, N_WINDOWS * WINDOW_S, rng)
    fw = ODAFramework(MINI, allocation, seed=3, options=options)
    if fault_plan is not None:
        fw.tiers.ocean = FaultyObjectStore(
            fw.tiers.ocean, FaultInjector(fault_plan)
        )
    reset_fast_path_caches()
    try:
        if baseline:
            with baseline_mode():
                summaries = fw.run(0.0, N_WINDOWS * WINDOW_S, WINDOW_S)
        else:
            summaries = fw.run(0.0, N_WINDOWS * WINDOW_S, WINDOW_S)
        return fw, summaries
    finally:
        fw.close()


@pytest.fixture(scope="module")
def baseline_run():
    return run_windows(DataPlaneOptions(), baseline=True)


def assert_tables_equal(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a[name], b[name]
        assert ca.dtype == cb.dtype
        if ca.dtype == object:
            assert list(ca) == list(cb)
        else:
            assert ca.tobytes() == cb.tobytes()  # byte-identical, not just ==


def assert_equivalent(fast_fw, fast_summaries, baseline_run):
    base_fw, base_summaries = baseline_run
    assert fast_summaries == base_summaries
    assert fast_fw.tiers.footprint() == base_fw.tiers.footprint()
    for name in base_fw.tiers.datasets():
        assert_tables_equal(
            base_fw.tiers.scan_ocean(name), fast_fw.tiers.scan_ocean(name)
        )
        try:
            bt = base_fw.tiers.query_online(name)
        except KeyError:
            continue  # not a LAKE-resident class; OCEAN compared above
        assert_tables_equal(bt, fast_fw.tiers.query_online(name))


def test_default_options_match_serial_baseline(baseline_run):
    fw, summaries = run_windows(DataPlaneOptions())
    assert_equivalent(fw, summaries, baseline_run)


def test_observability_off_matches_serial_baseline(baseline_run):
    """Tracing and metrics are output-invariant: with the tracer and the
    metrics registry switched off, every window and tier byte matches."""
    TRACER.enabled = METRICS.enabled = False
    try:
        fw, summaries = run_windows(DataPlaneOptions())
    finally:
        TRACER.enabled = METRICS.enabled = True
    assert_equivalent(fw, summaries, baseline_run)


def memo_stats():
    return rg_cache.row_group_cache_stats()


def test_baseline_mode_takes_every_reference_path(monkeypatch):
    """A framework built with default options and run inside
    ``baseline_mode()`` emits through every source's ``emit_reference``,
    touches no memo or cache on the way to OCEAN or back, and answers
    what the fast path does."""
    fast_fw, fast_summaries = run_windows(DataPlaneOptions())
    fast_answer = fast_fw.tiers.query_archive("power.bronze")

    calls = Counter()
    rng = np.random.default_rng(11)
    allocation = synthetic_job_mix(MINI, 0.0, N_WINDOWS * WINDOW_S, rng)
    fw = ODAFramework(MINI, allocation, seed=3)
    sources = [fw.fleet.power, fw.fleet.perf, fw.fleet.syslog,
               fw.fleet.storage_io, fw.fleet.interconnect, fw.fleet.facility]  # fmt: skip
    for source in sources:

        def counted(t0, t1, name=source.name, emit=source.emit_reference):
            calls[name] += 1
            return emit(t0, t1)

        monkeypatch.setattr(source, "emit_reference", counted)
    reset_fast_path_caches()
    before = memo_stats()
    with baseline_mode():
        summaries = [
            fw.run_window(w * WINDOW_S, (w + 1) * WINDOW_S)
            for w in range(N_WINDOWS)
        ]
        answer = fw.tiers.query_archive("power.bronze")

    assert {s.name: calls[s.name] for s in sources} == {
        s.name: N_WINDOWS for s in sources
    }
    assert memo_stats() == before
    assert not allocation._util_memo
    assert_equivalent(fw, summaries, (fast_fw, fast_summaries))
    assert_tables_equal(answer, fast_answer)


def test_pipeline_off_run_matches_serial_baseline(baseline_run):
    fw, summaries = run_span(DataPlaneOptions(pipeline="off"))
    assert_equivalent(fw, summaries, baseline_run)


def test_run_chaos_equivalence(baseline_run):
    """Transient OCEAN faults during ``run`` are absorbed by the retry
    envelope and leave every byte identical to a fault-free baseline
    run (the PR-3 chaos harness contract)."""
    plan = FaultPlan(
        [
            FaultSpec(FaultyObjectStore.SITE_PUT, FaultKind.TIER_ERROR, 2),
            FaultSpec(FaultyObjectStore.SITE_PUT, FaultKind.TIER_ERROR, 7),
            FaultSpec(FaultyObjectStore.SITE_PUT, FaultKind.TIER_ERROR, 11),
        ]
    )
    fw, summaries = run_span(DataPlaneOptions(), fault_plan=plan)
    assert fw.tiers.ocean.injector.injected  # the faults actually fired
    assert_equivalent(fw, summaries, baseline_run)


def test_option_validation():
    with pytest.raises(ValueError):
        DataPlaneOptions(executor="processes")
    with pytest.raises(ValueError):
        DataPlaneOptions(pipeline="eager")
    with pytest.raises(ValueError, match="DESIGN.md"):
        DataPlaneOptions(executor="threads")
    with pytest.raises(ValueError, match="DESIGN.md"):
        DataPlaneOptions(pipeline="on")
    with pytest.raises(TypeError):
        DataPlaneOptions(max_workers=4)


@pytest.mark.parametrize("cpus", [1, 64])
def test_modes_resolve_without_reading_the_host(monkeypatch, cpus):
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    for options in (
        DataPlaneOptions(),
        DataPlaneOptions(executor="auto", pipeline="auto"),
        DataPlaneOptions.serial_baseline(),
    ):
        assert options.resolve_executor() == "serial"
        assert options.resolve_pipeline() == "off"


def test_run_window_bounds_do_not_drift():
    """Bounds are ``t0 + k * window_s``: a non-dyadic step must not
    accumulate into a sliver window, and a ragged tail clips to ``t1``."""
    rng = np.random.default_rng(0)
    allocation = synthetic_job_mix(MINI, 0.0, 60.0, rng)
    fw = ODAFramework(MINI, allocation, seed=1)
    calls = []
    fw.run_window = lambda a, b: calls.append((a, b))
    for t1, step in ((1.0, 0.1), (6.0, 0.6)):
        calls.clear()
        fw.run(0.0, t1, step)
        assert len(calls) == 10
        assert calls[0][0] == 0.0 and calls[-1][1] == t1
        assert all(b == a2 for (_, b), (a2, _) in zip(calls, calls[1:]))
    calls.clear()
    fw.run(0.0, 40.0, 15.0)
    assert calls == [(0.0, 15.0), (15.0, 30.0), (30.0, 40.0)]


def test_managed_run_and_serving_leave_no_threads():
    rng = np.random.default_rng(0)
    allocation = synthetic_job_mix(MINI, 0.0, 6 * WINDOW_S, rng)
    before = threading.active_count()
    with ODAFramework(
        MINI,
        allocation,
        seed=1,
        options=DataPlaneOptions(lifecycle=True, lineage=True, shards=3),
    ) as fw:
        assert len(fw.run(0.0, 6 * WINDOW_S, WINDOW_S)) == 6
        with fw.serving_gateway(cache_enabled=False) as gateway:
            for i in range(20):
                envelope = gateway.submit(
                    Request.make("ops", "fleet_power"), now=float(i)
                )
                assert envelope.status == "ok"
        assert threading.active_count() == before
    # close() releases nothing, so the framework stays usable after it.
    fw.run_window(6 * WINDOW_S, 7 * WINDOW_S)
    assert threading.active_count() == before
