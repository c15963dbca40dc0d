"""Unit tests for producer/consumer clients."""

import numpy as np
import pytest

from repro.stream import Broker, Consumer, Producer, RetentionPolicy, TopicConfig
from repro.telemetry import ObservationBatch


def make_broker(n_partitions=2):
    broker = Broker()
    broker.create_topic(TopicConfig("t", n_partitions))
    return broker


class TestProducer:
    def test_accounting(self):
        broker = make_broker()
        producer = Producer(broker)
        producer.send("t", "hello", nbytes=5)
        producer.send("t", "world", nbytes=7)
        assert broker.topic_records("t") == 2
        assert broker.topic_bytes("t") == 12

    def test_estimates_batch_size(self):
        broker = make_broker()
        producer = Producer(broker)
        batch = ObservationBatch(
            timestamps=np.zeros(3),
            component_ids=np.zeros(3),
            sensor_ids=np.zeros(3),
            values=np.zeros(3),
        )
        record = producer.send("t", batch)
        assert record.nbytes == batch.nbytes_raw

    def test_estimates_string_bytes(self):
        broker = make_broker()
        record = Producer(broker).send("t", "abcd")
        assert record.nbytes == 4

    def test_unknown_topic_propagates(self):
        with pytest.raises(KeyError):
            Producer(make_broker()).send("nope", 1)


class TestConsumer:
    def test_single_consumer_reads_everything(self):
        broker = make_broker()
        for i in range(20):
            broker.produce("t", i)
        consumer = Consumer(broker, "t", "g")
        values = sorted(r.value for r in consumer.poll(100))
        assert values == list(range(20))

    def test_poll_advances_position(self):
        broker = make_broker(1)
        for i in range(5):
            broker.produce("t", i)
        consumer = Consumer(broker, "t", "g")
        assert len(consumer.poll(3)) == 3
        assert len(consumer.poll(100)) == 2
        assert consumer.poll(100) == []

    def test_commit_resumes_group(self):
        broker = make_broker(1)
        for i in range(10):
            broker.produce("t", i)
        c1 = Consumer(broker, "t", "g")
        c1.poll(4)
        c1.commit()
        # New consumer instance, same group: resumes at committed offset.
        c2 = Consumer(broker, "t", "g")
        assert [r.value for r in c2.poll(100)] == list(range(4, 10))

    def test_uncommitted_progress_lost(self):
        broker = make_broker(1)
        for i in range(10):
            broker.produce("t", i)
        Consumer(broker, "t", "g").poll(4)  # never committed
        c2 = Consumer(broker, "t", "g")
        assert len(c2.poll(100)) == 10

    def test_group_members_split_partitions(self):
        broker = make_broker(n_partitions=4)
        for i in range(40):
            broker.produce("t", i)  # round-robin over partitions
        a = Consumer(broker, "t", "g", member=0, group_size=2)
        b = Consumer(broker, "t", "g", member=1, group_size=2)
        assert set(a.partitions) == {0, 2}
        assert set(b.partitions) == {1, 3}
        got = [r.value for r in a.poll(100)] + [r.value for r in b.poll(100)]
        assert sorted(got) == list(range(40))

    def test_seek_to_beginning_replays(self):
        broker = make_broker(1)
        for i in range(5):
            broker.produce("t", i)
        consumer = Consumer(broker, "t", "g")
        consumer.poll(100)
        consumer.seek_to_beginning()
        assert len(consumer.poll(100)) == 5

    def test_seek_unassigned_partition_rejected(self):
        broker = make_broker(4)
        consumer = Consumer(broker, "t", "g", member=0, group_size=2)
        with pytest.raises(ValueError):
            consumer.seek(1, 0)

    def test_lag_tracks_local_position(self):
        broker = make_broker(1)
        for i in range(10):
            broker.produce("t", i)
        consumer = Consumer(broker, "t", "g")
        assert consumer.lag() == 10
        consumer.poll(6)
        assert consumer.lag() == 4

    def test_poll_skips_trimmed_gap(self):
        broker = Broker()
        broker.create_topic(TopicConfig("t", 1, RetentionPolicy(max_age_s=10.0)))
        for i in range(5):
            broker.produce("t", i, timestamp=float(i))
        broker.enforce_retention(now=100.0)  # everything trimmed
        for i in range(5, 8):
            broker.produce("t", i, timestamp=100.0)
        consumer = Consumer(broker, "t", "g")  # committed=0, trimmed gap
        assert [r.value for r in consumer.poll(100)] == [5, 6, 7]

    def test_invalid_group_geometry(self):
        broker = make_broker()
        with pytest.raises(ValueError):
            Consumer(broker, "t", "g", member=2, group_size=2)
        with pytest.raises(ValueError):
            Consumer(broker, "t", "g", group_size=0)
