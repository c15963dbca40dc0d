"""The one meter registry's core contract, and the repro.perf isolation
helpers the benchmarks call between repetitions.

Work counters and stage timers record into :class:`MetricsRegistry`
(``repro.perf.PERF`` is only a second name for ``repro.obs.METRICS``):
counters, timers observed as histograms, reset, snapshots, the one
``enabled`` switch and threads.  Labels, gauges, bucket registration and
determinism are in ``tests/obs/test_metrics.py``.
"""

import threading

import pytest

from repro.obs import METRICS, MetricsRegistry
from repro.perf import baseline_mode, reset_all, reset_fast_path_caches


@pytest.fixture()
def reg():
    return MetricsRegistry()


def test_timer_accumulates(reg):
    for _ in range(3):
        with reg.timer("stage.a"):
            pass
    hist = reg.snapshot()["histograms"]["stage.a"]
    assert hist["count"] == 3
    assert hist["total"] >= 0.0
    assert hist["max"] <= hist["total"]
    assert reg.total("stage.a") == hist["total"]
    assert reg.total("never.recorded") == 0.0


def test_timer_records_on_exception(reg):
    with pytest.raises(RuntimeError):
        with reg.timer("stage.boom"):
            raise RuntimeError("boom")
    assert reg.snapshot()["histograms"]["stage.boom"]["count"] == 1


def test_counters(reg):
    reg.inc("rows")
    reg.inc("rows", 41)
    reg.inc("bytes", 2.5)
    assert reg.counter("rows") == 42
    assert reg.counter("bytes") == 2.5
    assert reg.counter("never") == 0


def test_reset_and_snapshot_shape(reg):
    with reg.timer("t"):
        pass
    reg.inc("c")
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges", "histograms"}
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}


def test_disabled_context(reg):
    """A block run with recording switched off leaves nothing behind,
    stage timers included."""
    reg.enabled = False
    with reg.timer("t"):
        pass
    reg.inc("c")
    reg.enabled = True
    assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert reg.enabled


def test_timer_decides_once_at_entry(reg):
    """A block that starts enabled is recorded even if recording is
    switched off before it exits — and vice versa."""
    with reg.timer("straddle.on"):
        reg.enabled = False
    reg.enabled = True
    assert reg.snapshot()["histograms"]["straddle.on"]["count"] == 1

    reg.enabled = False
    with reg.timer("straddle.off"):
        reg.enabled = True
    assert "straddle.off" not in reg.snapshot()["histograms"]


def test_timer_entered_before_disabled_region_still_records(reg):
    with reg.timer("outer"):
        reg.enabled = False
        with reg.timer("inner"):
            pass
        reg.enabled = True
    hists = reg.snapshot()["histograms"]
    assert hists["outer"]["count"] == 1
    assert "inner" not in hists


def test_snapshot_is_sorted_and_detached(reg):
    reg.inc("b")
    reg.inc("a")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    snap["counters"]["a"] = 99  # mutating the snapshot ...
    assert reg.counter("a") == 1  # ... must not touch the registry


def test_thread_safety(reg):
    def work():
        for _ in range(500):
            reg.inc("n")
            with reg.timer("t"):
                pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("n") == 2000
    assert reg.snapshot()["histograms"]["t"]["count"] == 2000


def test_global_registry_is_wired():
    """The data plane records its stage timers into METRICS, as
    histograms under their documented names."""
    import numpy as np

    from repro.core import ODAFramework
    from repro.telemetry import MINI, synthetic_job_mix

    rng = np.random.default_rng(2)
    allocation = synthetic_job_mix(MINI, 0.0, 30.0, rng)
    METRICS.reset()
    with ODAFramework(MINI, allocation, seed=1) as fw:
        fw.run_window(0.0, 30.0)
    hists = METRICS.snapshot()["histograms"]
    for name in ("window.total", "telemetry.emit", "tier.ingest"):
        assert name in hists, f"missing {name}: have {sorted(hists)}"
    assert hists["window.total"]["total"] >= hists["telemetry.emit"]["total"]


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
    """reset_all() is the single isolation call the benchmarks use: it
    must empty the fast-path memos, the obs tracer and the metrics
    registry in one shot."""
    from repro.obs import TRACER

    METRICS.inc("leftover")
    with METRICS.timer("leftover.t"):
        pass
    METRICS.set_gauge("leftover.g", 1.0)
    with TRACER.trace(seed=0, name="leftover"):
        pass
    reset_all()
    assert METRICS.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }
    assert TRACER.finished() == []


def test_reset_all_gives_rep_to_rep_counter_independence():
    """Two identical seeded runs separated by reset_all() must report
    identical counters — no bleed from the first rep into the second
    (the bug a forgotten manual reset used to cause)."""
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
        return METRICS.snapshot()["counters"]

    first = one_rep()
    second = one_rep()
    assert first == second
    assert any(
        name.startswith("stream.produced_records{") and value > 0
        for name, value in first.items()
    )
