"""MetricsRegistry: labeled meters, histograms, the recording switch,
determinism (the unlabelled core contract is in tests/perf)."""

import threading

import pytest

from repro.obs import METRICS, Histogram, MetricsRegistry
from repro.obs.metrics import DEFAULT_BUCKETS, SIZE_BUCKETS


@pytest.fixture()
def reg():
    return MetricsRegistry()


class TestCountersAndGauges:
    def test_counters_accumulate_per_label_set(self, reg):
        reg.inc("records", topic="power")
        reg.inc("records", 4, topic="power")
        reg.inc("records", topic="syslog")
        assert reg.counter("records", topic="power") == 5
        assert reg.counter("records", topic="syslog") == 1
        assert reg.counter("records") == 0  # unlabeled is distinct

    def test_gauges_overwrite(self, reg):
        reg.set_gauge("lag", 10.0, topic="power")
        reg.set_gauge("lag", 3.0, topic="power")
        assert reg.gauge("lag", topic="power") == 3.0

    def test_label_order_is_irrelevant(self, reg):
        reg.inc("x", a=1, b=2)
        reg.inc("x", b=2, a=1)
        assert reg.counter("x", a=1, b=2) == 2

    def test_snapshot_renders_labels(self, reg):
        reg.inc("records", topic="power")
        reg.set_gauge("depth", 2.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"records{topic=power}": 1.0}
        assert snap["gauges"] == {"depth": 2.0}


class TestHistograms:
    def test_histogram_buckets(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        d = h.to_dict()
        assert d["buckets"] == {"le_1": 1, "le_10": 1, "overflow": 1}
        assert d["count"] == 3
        assert d["max"] == 50.0
        assert d["mean"] == pytest.approx(55.5 / 3)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(())
        with pytest.raises(ValueError):
            Histogram((2.0, 1.0))

    def test_observe_uses_registered_buckets(self, reg):
        reg.register_buckets("rows", SIZE_BUCKETS)
        reg.observe("rows", 500.0, stage="silver")
        hist = reg.snapshot()["histograms"]["rows{stage=silver}"]
        assert hist["buckets"]["le_1000"] == 1

    def test_register_conflicting_buckets_raises(self, reg):
        reg.register_buckets("rows", SIZE_BUCKETS)
        reg.register_buckets("rows", SIZE_BUCKETS)  # idempotent
        with pytest.raises(ValueError):
            reg.register_buckets("rows", DEFAULT_BUCKETS)

    def test_register_after_observe_checks_existing(self, reg):
        reg.observe("lat", 0.5)  # lands in DEFAULT_BUCKETS
        with pytest.raises(ValueError):
            reg.register_buckets("lat", SIZE_BUCKETS)

    def test_timer_observes_duration(self, reg):
        with reg.timer("lat", site="x"):
            pass
        hist = reg.snapshot()["histograms"]["lat{site=x}"]
        assert hist["count"] == 1
        assert hist["max"] >= 0.0

    def test_reset_keeps_bucket_registrations(self, reg):
        reg.register_buckets("rows", SIZE_BUCKETS)
        reg.observe("rows", 5.0)
        reg.reset()
        assert reg.snapshot()["histograms"] == {}
        reg.observe("rows", 5.0)
        hist = reg.snapshot()["histograms"]["rows"]
        assert "le_1e+07" in hist["buckets"]


class TestSuspension:
    """``enabled`` is the registry's one recording control."""

    def test_disabled_flag(self, reg):
        reg.enabled = False
        reg.inc("x")
        reg.observe("h", 1.0)
        reg.set_gauge("g", 1.0)
        with reg.timer("t"):
            pass
        assert not reg.enabled
        reg.enabled = True
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }

    def test_timer_decides_once_at_entry(self, reg):
        """A labelled block that starts enabled is observed even if
        recording is switched off before it exits — and vice versa.
        (The unlabelled stage-timer case is in tests/perf.)"""
        with reg.timer("lat", site="on"):
            reg.enabled = False
        reg.enabled = True
        assert reg.snapshot()["histograms"]["lat{site=on}"]["count"] == 1

        reg.enabled = False
        with reg.timer("lat", site="off"):
            reg.enabled = True
        assert "lat{site=off}" not in reg.snapshot()["histograms"]


class TestDeterministicMeters:
    def test_deterministic_values_filters_and_sorts(self, reg):
        reg.inc("wall.time", 1.23)  # not deterministic: excluded
        reg.set_gauge("oda.rows", 42.0, deterministic=True)
        reg.inc("oda.windows", deterministic=True)
        assert reg.deterministic_values() == [
            ("oda.rows", 42.0),
            ("oda.windows", 1.0),
        ]

    def test_thread_safety(self, reg):
        def work():
            for _ in range(300):
                reg.inc("n")
                reg.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 1200
        assert reg.snapshot()["histograms"]["h"]["count"] == 1200


def test_global_registry_preregisters_size_buckets():
    """The process-wide registry fixes count-scaled buckets for the
    count-valued histograms before any instrumented module observes."""
    METRICS.register_buckets("refine.rows_per_window", SIZE_BUCKETS)
    with pytest.raises(ValueError):
        METRICS.register_buckets("refine.rows_per_window", DEFAULT_BUCKETS)
