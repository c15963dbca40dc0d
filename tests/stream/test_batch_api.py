"""Fetched lists are snapshots, and the broker's typed error contracts."""

import pytest

from repro.stream import (
    Broker,
    Consumer,
    RetentionPolicy,
    TopicConfig,
    UnknownPartitionError,
    UnknownTopicError,
)


def make_broker(n_partitions=3) -> Broker:
    broker = Broker()
    broker.create_topic(TopicConfig("t", n_partitions, RetentionPolicy()))
    return broker


class TestZeroCopyFetch:
    def test_partial_fetch_is_a_copy(self):
        broker = Broker()
        broker.create_topic(TopicConfig("t", 1))
        for i in range(50):
            broker.produce("t", i)
        part = broker.fetch("t", 0, 10, None)
        assert [r.value for r in part] == list(range(10, 50))
        capped = broker.fetch("t", 0, 0, 5)
        assert [r.value for r in capped] == list(range(5))
        assert capped is not broker.fetch("t", 0, 0, 5)

    def test_zero_copy_list_survives_trim(self):
        """A whole-log read is a snapshot: neither later appends nor a
        retention trim change the list its holder got."""
        broker = Broker()
        broker.create_topic(
            TopicConfig("t", 1, RetentionPolicy(max_bytes=10))
        )
        for i in range(10):
            broker.produce("t", i, timestamp=float(i), nbytes=1)
        snapshot = broker.fetch("t", 0, 0, None)
        for i in range(10, 30):
            broker.produce("t", i, timestamp=float(i), nbytes=1)
        # Appends after a whole-log read do not extend the handed-out list ...
        assert [r.value for r in snapshot] == list(range(10))
        # ... and neither does a trim shrink it as the broker drops the head.
        assert broker.enforce_retention(now=100.0)["t"] > 0
        assert [r.value for r in snapshot] == list(range(10))
        assert broker.earliest_offset("t", 0) >= 10
        assert len(broker.fetch("t", 0, 0, None)) <= 10

    def test_fetched_lists_are_snapshots(self):
        """Lists from a whole-log ``fetch`` and from ``poll_slices`` keep
        exactly the records they were handed out with."""
        broker = Broker()
        broker.create_topic(TopicConfig("t", 1, RetentionPolicy(max_bytes=4)))
        for i in range(4):
            broker.produce("t", i, timestamp=float(i), nbytes=1)
        fetched = broker.fetch("t", 0, 0, None)
        ((_, polled),) = Consumer(broker, "t", "g").poll_slices(max_records=None)
        for i in range(4, 8):
            broker.produce("t", i, timestamp=float(i), nbytes=1)
        assert broker.enforce_retention(now=100.0) == {"t": 4}
        assert [r.value for r in fetched] == [0, 1, 2, 3]
        assert [r.value for r in polled] == [0, 1, 2, 3]


class TestErrorTypes:
    def test_unknown_topic(self):
        broker = make_broker()
        with pytest.raises(UnknownTopicError, match="create it"):
            broker.fetch("nope", 0, 0)
        with pytest.raises(UnknownTopicError):
            broker.produce("nope", 1)
        assert issubclass(UnknownTopicError, KeyError)

    def test_unknown_partition(self):
        broker = make_broker(n_partitions=2)
        with pytest.raises(UnknownPartitionError, match="with 2 partitions"):
            broker.fetch("t", 5, 0)
        with pytest.raises(UnknownPartitionError):
            broker.earliest_offset("t", -1)
        assert issubclass(UnknownPartitionError, IndexError)
