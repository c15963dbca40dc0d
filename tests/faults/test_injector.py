"""Unit tests for the fault injector and its data-path wrappers."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyBroker,
    FaultyObjectStore,
    RetryPolicy,
    SimulatedCrash,
    TornCheckpointStore,
    TransientTierError,
)
from repro.obs import METRICS
from repro.pipeline import CheckpointCorruptWarning, CheckpointStore
from repro.storage.object_store import ObjectStore
from repro.stream import (
    Broker,
    Consumer,
    FetchTimeoutError,
    ProduceUnavailableError,
    RetentionPolicy,
    TopicConfig,
)


def make_broker(n_partitions=1, retention=None):
    broker = Broker()
    broker.create_topic(
        TopicConfig("t", n_partitions, retention or RetentionPolicy())
    )
    return broker


class TestFaultInjector:
    def test_counts_and_logs_injections(self):
        plan = FaultPlan([FaultSpec("s", FaultKind.FETCH_ERROR, 2)])
        inj = FaultInjector(plan)
        assert inj.fire("s") is None  # call 1: clean
        with pytest.raises(FetchTimeoutError):
            inj.fire("s")  # call 2: faults
        assert inj.fire("s") is None  # call 3: clean again
        assert inj.calls("s") == 3
        assert inj.injected == [("s", 2, FaultKind.FETCH_ERROR)]

    def test_error_kinds_raise_their_types(self):
        cases = [
            (FaultKind.FETCH_ERROR, FetchTimeoutError),
            (FaultKind.PRODUCE_ERROR, ProduceUnavailableError),
            (FaultKind.TIER_ERROR, TransientTierError),
            (FaultKind.CRASH, SimulatedCrash),
        ]
        for kind, exc_type in cases:
            inj = FaultInjector(FaultPlan([FaultSpec("s", kind, 1)]))
            with pytest.raises(exc_type):
                inj.fire("s")

    def test_crash_is_not_an_exception(self):
        """`except Exception` must not survive a simulated kill."""
        inj = FaultInjector(FaultPlan([FaultSpec("s", FaultKind.CRASH, 1)]))
        with pytest.raises(BaseException) as info:
            try:
                inj.fire("s")
            except Exception:  # what sloppy data-path code would write
                pytest.fail("SimulatedCrash caught by `except Exception`")
        assert isinstance(info.value, SimulatedCrash)
        assert info.value.site == "s" and info.value.call_index == 1

    def test_slow_read_accumulates_virtual_delay(self):
        inj = FaultInjector(
            FaultPlan([FaultSpec("s", FaultKind.SLOW_READ, 1, arg=0.75)])
        )
        spec = inj.fire("s")  # returns the spec rather than raising
        assert spec.kind is FaultKind.SLOW_READ
        assert inj.virtual_delay_s == 0.75

    def test_injection_counter_in_perf(self):
        before = METRICS.counter("faults.injected.fetch_error")
        inj = FaultInjector(
            FaultPlan([FaultSpec("s", FaultKind.FETCH_ERROR, 1)])
        )
        with pytest.raises(FetchTimeoutError):
            inj.fire("s")
        assert METRICS.counter("faults.injected.fetch_error") - before == 1


class TestFaultyBroker:
    def test_empty_plan_is_transparent(self):
        plain, wrapped_inner = make_broker(2), make_broker(2)
        faulty = FaultyBroker(wrapped_inner, FaultInjector(FaultPlan()))
        for i in range(10):
            plain.produce("t", i)
            faulty.produce("t", i)
        for p in range(2):
            a = plain.fetch("t", p, 0, None)
            b = faulty.fetch("t", p, 0, None)
            assert [(r.offset, r.value) for r in a] == [
                (r.offset, r.value) for r in b
            ]
        # Non-intercepted methods delegate.
        assert faulty.latest_offset("t", 0) == wrapped_inner.latest_offset(
            "t", 0
        )

    def test_fetch_fault_then_recovery(self):
        broker = make_broker()
        broker.produce("t", 1)
        plan = FaultPlan(
            [FaultSpec(FaultyBroker.SITE_FETCH, FaultKind.FETCH_ERROR, 1)]
        )
        faulty = FaultyBroker(broker, FaultInjector(plan))
        with pytest.raises(FetchTimeoutError):
            faulty.fetch("t", 0, 0, None)
        assert [r.value for r in faulty.fetch("t", 0, 0, None)] == [1]

    def test_produce_sites_shared_between_single_and_batch(self):
        plan = FaultPlan(
            [FaultSpec(FaultyBroker.SITE_PRODUCE, FaultKind.PRODUCE_ERROR, 2)]
        )
        faulty = FaultyBroker(make_broker(), FaultInjector(plan))
        faulty.produce("t", 1)  # call 1: clean
        with pytest.raises(ProduceUnavailableError):
            faulty.produce("t", 2)  # call 2: faults
        assert faulty.latest_offset("t", 0) == 1  # nothing appended
        faulty.produce("t", 3)  # call 3: clean again
        assert [r.value for r in faulty.fetch("t", 0, 0, None)] == [1, 3]

    def test_retention_race_trims_before_fetch(self):
        broker = make_broker(retention=RetentionPolicy(max_age_s=10.0))
        for i in range(6):
            broker.produce("t", i, timestamp=float(i))
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultyBroker.SITE_FETCH,
                    FaultKind.RETENTION_RACE,
                    1,
                    arg=13.0,  # trims ts < 3
                )
            ]
        )
        faulty = FaultyBroker(broker, FaultInjector(plan))
        records = faulty.fetch("t", 0, 3, None)
        assert [r.value for r in records] == [3, 4, 5]
        assert broker.earliest_offset("t", 0) == 3

    def test_consumer_rides_through_faults(self):
        """End-to-end: Consumer + FaultyBroker + retry = same records."""
        broker = make_broker()
        for i in range(5):
            broker.produce("t", i)
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultyBroker.SITE_FETCH,
                    FaultKind.FETCH_ERROR,
                    1,
                    repeat=2,
                )
            ]
        )
        faulty = FaultyBroker(broker, FaultInjector(plan))
        consumer = Consumer(faulty, "t", group="g")
        records = consumer.poll(None)
        assert [r.value for r in records] == [0, 1, 2, 3, 4]

    def test_consumer_gives_up_on_persistent_fault(self):
        broker = make_broker()
        broker.produce("t", 0)
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultyBroker.SITE_FETCH,
                    FaultKind.FETCH_ERROR,
                    1,
                    repeat=10,
                )
            ]
        )
        faulty = FaultyBroker(broker, FaultInjector(plan))
        consumer = Consumer(
            faulty, "t", group="g", retry_policy=RetryPolicy(max_attempts=3)
        )
        from repro.faults import RetryExhaustedError

        with pytest.raises(RetryExhaustedError):
            consumer.poll(None)


class TestTornCheckpointStore:
    def test_requires_disk_backing(self):
        with pytest.raises(ValueError):
            TornCheckpointStore(CheckpointStore(), FaultInjector(FaultPlan()))

    def test_empty_plan_is_transparent(self, tmp_path):
        store = TornCheckpointStore(
            CheckpointStore(str(tmp_path / "cp")), FaultInjector(FaultPlan())
        )
        store.commit("q", 0, {0: 5}, {"wm": 1.0})
        assert store.last_batch_id("q") == 0
        assert CheckpointStore(str(tmp_path / "cp")).offsets("q") == {0: 5}

    def test_crash_before_write_leaves_old_state(self, tmp_path):
        path = str(tmp_path / "cp")
        plan = FaultPlan(
            [FaultSpec(TornCheckpointStore.SITE_COMMIT, FaultKind.CRASH, 2)]
        )
        store = TornCheckpointStore(CheckpointStore(path), FaultInjector(plan))
        store.commit("q", 0, {0: 5})
        with pytest.raises(SimulatedCrash):
            store.commit("q", 1, {0: 9})
        # Restart sees the last durable commit, no corruption.
        reloaded = CheckpointStore(path)
        assert reloaded.last_batch_id("q") == 0
        assert reloaded.offsets("q") == {0: 5}
        assert reloaded.last_corruption is None

    def test_torn_write_quarantined_on_reload(self, tmp_path):
        path = str(tmp_path / "cp")
        plan = FaultPlan(
            [
                FaultSpec(
                    TornCheckpointStore.SITE_COMMIT,
                    FaultKind.TORN_CHECKPOINT,
                    2,
                )
            ]
        )
        store = TornCheckpointStore(CheckpointStore(path), FaultInjector(plan))
        store.commit("q", 0, {0: 5})
        with pytest.raises(SimulatedCrash):
            store.commit("q", 1, {0: 9})
        # The torn file is on disk; a restarted store quarantines it and
        # replays from scratch instead of bricking.
        with pytest.warns(CheckpointCorruptWarning):
            reloaded = CheckpointStore(path)
        assert reloaded.queries() == []
        assert reloaded.last_corruption is not None


class TestFaultyObjectStore:
    def test_put_fault_then_delegate(self):
        inner = ObjectStore()
        inner.create_bucket("b")
        plan = FaultPlan(
            [FaultSpec(FaultyObjectStore.SITE_PUT, FaultKind.TIER_ERROR, 1)]
        )
        faulty = FaultyObjectStore(inner, FaultInjector(plan))
        with pytest.raises(TransientTierError):
            faulty.put("b", "k", b"data")
        faulty.put("b", "k", b"data")  # retry lands
        assert faulty.get("b", "k") == b"data"  # delegated read
