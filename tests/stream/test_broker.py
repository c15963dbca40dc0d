"""Unit + property tests for the partitioned log broker."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import (
    Broker,
    Consumer,
    RetentionPolicy,
    ShardedBroker,
    TopicConfig,
    UnknownPartitionError,
    UnknownTopicError,
)


def make_broker(n_partitions=2, retention=None) -> Broker:
    broker = Broker()
    broker.create_topic(
        TopicConfig("t", n_partitions, retention or RetentionPolicy())
    )
    return broker


class TestTopicManagement:
    def test_create_and_list(self):
        broker = make_broker()
        broker.create_topic(TopicConfig("u", 1))
        assert broker.topics() == ["t", "u"]

    def test_duplicate_rejected(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            broker.create_topic(TopicConfig("t", 1))

    def test_unknown_topic(self):
        with pytest.raises(KeyError):
            make_broker().fetch("nope", 0, 0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TopicConfig("t", 0)
        with pytest.raises(ValueError):
            TopicConfig("", 1)


class TestProduceFetch:
    def test_offsets_dense_per_partition(self):
        broker = make_broker(n_partitions=1)
        offsets = [broker.produce("t", i).offset for i in range(5)]
        assert offsets == [0, 1, 2, 3, 4]

    def test_same_key_same_partition(self):
        broker = make_broker(n_partitions=4)
        records = [broker.produce("t", i, key="node-7") for i in range(10)]
        assert len({r.partition for r in records}) == 1

    def test_same_key_preserves_order(self):
        broker = make_broker(n_partitions=4)
        for i in range(10):
            broker.produce("t", i, key="k")
        p = broker.produce("t", 99, key="k").partition
        values = [r.value for r in broker.fetch("t", p, 0, 100)]
        assert values == list(range(10)) + [99]

    def test_keyless_round_robin_spreads(self):
        broker = make_broker(n_partitions=4)
        parts = {broker.produce("t", i).partition for i in range(8)}
        assert parts == {0, 1, 2, 3}

    def test_fetch_respects_max_records(self):
        broker = make_broker(n_partitions=1)
        for i in range(10):
            broker.produce("t", i)
        assert len(broker.fetch("t", 0, 0, max_records=3)) == 3

    def test_fetch_from_future_offset_empty(self):
        broker = make_broker(n_partitions=1)
        broker.produce("t", 1)
        assert broker.fetch("t", 0, 10) == []

    def test_negative_nbytes_rejected(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            broker.produce("t", 1, nbytes=-1)


class TestOffsetsAndLag:
    def test_watermarks(self):
        broker = make_broker(n_partitions=1)
        assert broker.earliest_offset("t", 0) == 0
        assert broker.latest_offset("t", 0) == 0
        broker.produce("t", 1)
        assert broker.latest_offset("t", 0) == 1

    def test_commit_and_lag(self):
        broker = make_broker(n_partitions=1)
        for i in range(10):
            broker.produce("t", i)
        assert broker.lag("g", "t") == 10
        broker.commit("g", "t", 0, 4)
        assert broker.lag("g", "t") == 6
        assert broker.committed("g", "t", 0) == 4

    def test_groups_independent(self):
        broker = make_broker(n_partitions=1)
        broker.produce("t", 1)
        broker.commit("a", "t", 0, 1)
        assert broker.lag("a", "t") == 0
        assert broker.lag("b", "t") == 1

    def test_negative_commit_rejected(self):
        with pytest.raises(ValueError):
            make_broker().commit("g", "t", 0, -1)


def _fetch_negative_max(broker):
    with pytest.raises(ValueError):
        broker.fetch("t", 0, 0, -1)
    with pytest.raises(ValueError):
        broker.fetch("t", 0, 1, -3)


def _seek_negative_offset(broker):
    consumer = Consumer(broker, "t", "g")
    with pytest.raises(ValueError):
        consumer.seek(0, -4)
    consumer.poll(max_records=None)
    assert consumer.skipped_by_retention == 0


def _commit_unknown_address(broker):
    with pytest.raises(UnknownTopicError):
        broker.commit("g", "nope", 99, 3)
    with pytest.raises(UnknownPartitionError):
        broker.commit("g", "t", 99, 3)
    assert broker.committed("g", "t", 0) == 0


@pytest.mark.parametrize(
    "check", [_fetch_negative_max, _seek_negative_offset, _commit_unknown_address]
)
@pytest.mark.parametrize("kind", ["plain", "sharded"])
def test_bad_read_side_arguments_rejected(kind, check):
    """Negative record caps and offsets raise ``ValueError`` and an
    unknown commit address raises the typed error, on both brokers."""
    broker = Broker() if kind == "plain" else ShardedBroker(2)
    broker.create_topic(TopicConfig("t", 2))
    for i in range(3):
        broker.produce("t", i, key="k")
    check(broker)


class TestRetention:
    def test_age_based_trim(self):
        broker = make_broker(1, RetentionPolicy(max_age_s=100.0))
        for ts in (0.0, 50.0, 150.0):
            broker.produce("t", ts, timestamp=ts, nbytes=10)
        deleted = broker.enforce_retention(now=200.0)
        assert deleted == {"t": 2}
        assert broker.earliest_offset("t", 0) == 2
        assert broker.topic_records("t") == 1

    def test_size_based_trim(self):
        broker = make_broker(1, RetentionPolicy(max_bytes=25))
        for i in range(5):
            broker.produce("t", i, nbytes=10)
        broker.enforce_retention(now=0.0)
        assert broker.topic_bytes("t") <= 25
        assert broker.topic_records("t") == 2

    def test_offsets_survive_trim(self):
        broker = make_broker(1, RetentionPolicy(max_age_s=10.0))
        for i in range(5):
            broker.produce("t", i, timestamp=float(i))
        broker.enforce_retention(now=20.0)
        new = broker.produce("t", 99, timestamp=20.0)
        assert new.offset == 5  # offsets never reused

    def test_unbounded_policy_keeps_everything(self):
        broker = make_broker(1, RetentionPolicy())
        for i in range(5):
            broker.produce("t", i, timestamp=0.0)
        assert broker.enforce_retention(now=1e12) == {}
        assert broker.topic_records("t") == 5

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RetentionPolicy(max_age_s=0.0)
        with pytest.raises(ValueError):
            RetentionPolicy(max_bytes=0)


class TestBrokerProperties:
    @given(
        keys=st.lists(
            st.one_of(st.none(), st.text(min_size=1, max_size=4)),
            min_size=1,
            max_size=100,
        ),
        n_partitions=st.integers(1, 8),
    )
    @settings(max_examples=50, deadline=None)
    def test_all_records_retained_and_offsets_dense(self, keys, n_partitions):
        broker = Broker()
        broker.create_topic(TopicConfig("t", n_partitions))
        for i, key in enumerate(keys):
            broker.produce("t", i, key=key)
        # Every record is fetchable, and per-partition offsets are dense.
        total = 0
        for p in range(n_partitions):
            records = broker.fetch("t", p, 0, max_records=10**6)
            assert [r.offset for r in records] == list(range(len(records)))
            total += len(records)
        assert total == len(keys)
