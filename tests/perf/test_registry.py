"""PerfRegistry: the always-on meter the benchmark snapshots."""

import threading

import pytest

from repro.perf import (
    PERF,
    PerfRegistry,
    baseline_mode,
    reset_all,
    reset_fast_path_caches,
)


@pytest.fixture()
def reg():
    return PerfRegistry()


def test_timer_accumulates(reg):
    for _ in range(3):
        with reg.timer("stage.a"):
            pass
    snap = reg.snapshot()["timers"]["stage.a"]
    assert snap["calls"] == 3
    assert snap["total_s"] >= 0.0
    assert snap["max_s"] <= snap["total_s"]
    assert reg.total_s("stage.a") == snap["total_s"]
    assert reg.total_s("never.recorded") == 0.0


def test_timer_records_on_exception(reg):
    with pytest.raises(RuntimeError):
        with reg.timer("stage.boom"):
            raise RuntimeError("boom")
    assert reg.snapshot()["timers"]["stage.boom"]["calls"] == 1


def test_counters(reg):
    reg.count("rows")
    reg.count("rows", 41)
    reg.count("bytes", 2.5)
    assert reg.counter("rows") == 42
    assert reg.counter("bytes") == 2.5
    assert reg.counter("never") == 0


def test_reset_and_snapshot_shape(reg):
    with reg.timer("t"):
        pass
    reg.count("c")
    snap = reg.snapshot()
    assert set(snap) == {"timers", "counters"}
    reg.reset()
    assert reg.snapshot() == {"timers": {}, "counters": {}}


def test_disabled_context(reg):
    with reg.disabled():
        with reg.timer("t"):
            pass
        reg.count("c")
    assert reg.snapshot() == {"timers": {}, "counters": {}}
    assert reg.enabled  # restored


def test_timer_decides_once_at_entry(reg):
    """A block that starts enabled is recorded even if recording is
    switched off before it exits — and vice versa.  The old exit-time
    check silently dropped timings straddling a disabled() region."""
    with reg.timer("straddle.on"):
        reg.enabled = False
    reg.enabled = True
    assert reg.snapshot()["timers"]["straddle.on"]["calls"] == 1

    reg.enabled = False
    with reg.timer("straddle.off"):
        reg.enabled = True
    assert "straddle.off" not in reg.snapshot()["timers"]


def test_timer_entered_before_disabled_region_still_records(reg):
    with reg.timer("outer"):
        with reg.disabled():
            with reg.timer("inner"):
                pass
    timers = reg.snapshot()["timers"]
    assert timers["outer"]["calls"] == 1
    assert "inner" not in timers


def test_disabled_is_reentrant(reg):
    with reg.disabled():
        with reg.disabled():
            pass
        # Inner exit must not resume recording while the outer region
        # is still active — the stale-boolean bug the depth counter fixes.
        assert not reg.enabled
        reg.count("c")
    assert reg.enabled
    assert reg.counter("c") == 0


def test_disabled_overlapping_threads(reg):
    """Two overlapping disabled() regions on different threads must
    leave the registry recording once both exit."""
    entered = threading.Barrier(2)
    release = threading.Event()

    def hold():
        with reg.disabled():
            entered.wait()
            release.wait()

    threads = [threading.Thread(target=hold) for _ in range(2)]
    for t in threads:
        t.start()
    release.set()
    for t in threads:
        t.join()
    assert reg.enabled
    reg.count("after")
    assert reg.counter("after") == 1


def test_manual_switch_and_suspension_compose(reg):
    reg.enabled = False
    with reg.disabled():
        pass
    assert not reg.enabled  # the manual switch survives region exit
    reg.enabled = True
    assert reg.enabled


def test_snapshot_is_sorted_and_detached(reg):
    reg.count("b")
    reg.count("a")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    snap["counters"]["a"] = 99  # mutating the snapshot ...
    assert reg.counter("a") == 1  # ... must not touch the registry


def test_thread_safety(reg):
    def work():
        for _ in range(500):
            reg.count("n")
            with reg.timer("t"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("n") == 2000
    assert reg.snapshot()["timers"]["t"]["calls"] == 2000


def test_global_registry_is_wired():
    """The data plane records into PERF under its documented names."""
    import numpy as np

    from repro.core import ODAFramework
    from repro.telemetry import MINI, synthetic_job_mix

    rng = np.random.default_rng(2)
    allocation = synthetic_job_mix(MINI, 0.0, 30.0, rng)
    PERF.reset()
    with ODAFramework(MINI, allocation, seed=1) as fw:
        fw.run_window(0.0, 30.0)
    timers = PERF.snapshot()["timers"]
    for name in ("window.total", "telemetry.emit", "tier.ingest"):
        assert name in timers, f"missing {name}: have {sorted(timers)}"
    assert timers["window.total"]["total_s"] >= timers["telemetry.emit"]["total_s"]


def test_baseline_mode_restores_fast_path():
    """baseline_mode() must turn the fast-path switch on and restore it
    on exit, even on error."""
    from repro.perf import baseline

    reset_fast_path_caches()
    with baseline_mode():
        assert baseline.active()
    assert not baseline.active()

    with pytest.raises(RuntimeError):
        with baseline_mode():
            raise RuntimeError("boom")
    assert not baseline.active()


def test_reset_all_covers_perf_and_obs():
    """reset_all() is the single isolation call both benchmarks use: it
    must empty the fast-path memos, the PERF registry, the obs tracer
    and the obs metrics in one shot."""
    from repro.obs import METRICS, TRACER

    PERF.count("leftover")
    with PERF.timer("leftover.t"):
        pass
    METRICS.inc("leftover")
    with TRACER.trace(seed=0, name="leftover"):
        pass
    reset_all()
    assert PERF.snapshot() == {"timers": {}, "counters": {}}
    assert METRICS.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    assert TRACER.finished() == []


def test_reset_all_gives_rep_to_rep_counter_independence():
    """Two identical seeded runs separated by reset_all() must report
    identical PERF counters — no bleed from the first rep into the
    second (the bug a forgotten manual PERF.reset() used to cause)."""
    import numpy as np

    from repro.core import ODAFramework
    from repro.telemetry import MINI, synthetic_job_mix

    def one_rep():
        reset_all()
        allocation = synthetic_job_mix(
            MINI, 0.0, 60.0, np.random.default_rng(5)
        )
        with ODAFramework(MINI, allocation, seed=3) as fw:
            fw.run_window(0.0, 30.0)
        return PERF.snapshot()["counters"]

    first = one_rep()
    second = one_rep()
    assert first == second
    assert first["stream.produce.records"] > 0
