"""The one meter registry's core contract, and the repro.perf isolation
helpers the benchmarks call between repetitions.

Work counters record into :class:`MetricsRegistry` (``repro.perf.PERF``
is only a second name for ``repro.obs.METRICS``): counters, reset,
snapshots, the one ``enabled`` switch.  Stage times are spans'
(``tests/obs/test_span.py``).  Labels, gauges and determinism are in
``tests/obs/test_metrics.py``.
"""

import pytest

from repro.obs import METRICS, MetricsRegistry
from repro.perf import baseline_mode, reset_all, reset_fast_path_caches


@pytest.fixture()
def reg():
    return MetricsRegistry()


def test_counters(reg):
    reg.inc("rows")
    reg.inc("rows", 41)
    reg.inc("bytes", 2.5)
    assert reg.counter("rows") == 42
    assert reg.counter("bytes") == 2.5
    assert reg.counter("never") == 0


def test_reset_and_snapshot_shape(reg):
    reg.inc("c")
    reg.set_gauge("g", 1.0)
    snap = reg.snapshot()
    assert set(snap) == {"counters", "gauges"}
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {}}


def test_disabled_context(reg):
    """A block run with recording switched off leaves nothing behind."""
    reg.enabled = False
    reg.inc("c")
    reg.set_gauge("g", 1.0)
    reg.enabled = True
    assert reg.snapshot() == {"counters": {}, "gauges": {}}
    assert reg.enabled


def test_snapshot_is_sorted_and_detached(reg):
    reg.inc("b")
    reg.inc("a")
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    snap["counters"]["a"] = 99  # mutating the snapshot ...
    assert reg.counter("a") == 1  # ... must not touch the registry


def test_global_registry_is_wired():
    """A MINI window records its work into METRICS and its stage times
    as spans: the ``window`` root, a ``tier.ingest:<dataset>`` span per
    tier write and a ``stream.produce`` span per record, each timed."""
    import numpy as np

    from repro.core import ODAFramework
    from repro.obs import TRACER
    from repro.telemetry import MINI, synthetic_job_mix

    rng = np.random.default_rng(2)
    allocation = synthetic_job_mix(MINI, 0.0, 30.0, rng)
    reset_all()
    with ODAFramework(MINI, allocation, seed=1) as fw:
        fw.run_window(0.0, 30.0)
    spans = TRACER.finished()
    names = {s.name for s in spans}
    assert "window" in names and "stream.produce" in names, sorted(names)
    assert any(n.startswith("tier.ingest:") for n in names), sorted(names)
    (window,) = [s for s in spans if s.name == "window"]
    assert window.duration_s > 0.0
    produce = [s for s in spans if s.name == "stream.produce"]
    assert sum(s.duration_s for s in produce) <= window.duration_s
    assert METRICS.counter("stream.produced_records", topic="power") > 0
    reset_all()


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
    METRICS.set_gauge("leftover.g", 1.0)
    with TRACER.trace(seed=0, name="leftover"):
        pass
    reset_all()
    assert METRICS.snapshot() == {"counters": {}, "gauges": {}}
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
