"""MetricsRegistry: labeled meters, the recording switch, determinism
(the unlabelled core contract is in tests/perf)."""

import pytest

from repro.obs import MetricsRegistry


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


class TestSuspension:
    """``enabled`` is the registry's one recording control."""

    def test_disabled_flag(self, reg):
        reg.enabled = False
        reg.inc("x", topic="power")
        reg.set_gauge("g", 1.0, topic="power")
        assert not reg.enabled
        reg.enabled = True
        assert reg.snapshot() == {"counters": {}, "gauges": {}}


class TestDeterministicMeters:
    def test_deterministic_values_filters_and_sorts(self, reg):
        reg.inc("wall.time", 1.23)  # not deterministic: excluded
        reg.set_gauge("oda.rows", 42.0, deterministic=True)
        reg.inc("oda.windows", deterministic=True)
        assert reg.deterministic_values() == [
            ("oda.rows", 42.0),
            ("oda.windows", 1.0),
        ]

