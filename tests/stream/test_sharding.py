"""ShardedBroker: addressing, routing, per-shard offsets and retention.

Includes the two PR satellites: the untouched-shard commit regression
(a consumer that never read a shard must not mark it committed) and
per-shard retention (each shard trims on its own watermark, with
``stream.skipped_by_retention`` labeled per shard).
"""

import pytest

from repro.obs import METRICS
from repro.stream import (
    Broker,
    Consumer,
    RetentionPolicy,
    ShardedBroker,
    TopicConfig,
    UnknownPartitionError,
    UnknownTopicError,
)


def make(n_shards=3, n_partitions=2, retention=None) -> ShardedBroker:
    broker = ShardedBroker(n_shards)
    broker.create_topic(
        TopicConfig(
            "t",
            n_partitions=n_partitions,
            retention=retention or RetentionPolicy(),
        )
    )
    return broker


class TestAddressing:
    def test_flattened_partition_count(self):
        broker = make(n_shards=3, n_partitions=2)
        assert broker.topic_config("t").n_partitions == 6

    def test_shard_of_and_global_roundtrip(self):
        broker = make(n_shards=3, n_partitions=2)
        for g in range(6):
            shard = broker.shard_of(g, "t")
            local = g % 2
            assert broker.global_partition(shard, local, "t") == g

    def test_plain_broker_is_shard_zero(self):
        broker = Broker()
        broker.create_topic(TopicConfig("t", n_partitions=4))
        assert broker.n_shards == 1
        assert broker.shard_of(3, "t") == 0

    def test_shard_of_validates_like_fetch(self):
        sharded = ShardedBroker(3)
        sharded.create_topic(TopicConfig("t", n_partitions=4))
        sharded.create_topic(TopicConfig("h", n_partitions=1))
        with pytest.raises(UnknownPartitionError):
            sharded.shard_of(99, "t")  # 12 global partitions
        with pytest.raises(UnknownPartitionError):
            sharded.shard_of(-1, "t")
        with pytest.raises(UnknownTopicError):
            sharded.shard_of(0, "nope")
        # Resolved against the named topic's own width, never another's.
        assert sharded.shard_of(2, "h") == 2
        plain = Broker()
        plain.create_topic(TopicConfig("t", n_partitions=4))
        with pytest.raises(UnknownTopicError):
            plain.shard_of(0, "nope")
        with pytest.raises(UnknownPartitionError):
            plain.shard_of(4, "t")

    def test_single_shard_reduces_to_plain_broker(self):
        sharded = make(n_shards=1, n_partitions=4)
        plain = Broker()
        plain.create_topic(TopicConfig("t", n_partitions=4))
        for i in range(20):
            key = f"k{i % 7}" if i % 3 else None
            a = sharded.produce("t", i, key=key, timestamp=float(i), nbytes=4)
            b = plain.produce("t", i, key=key, timestamp=float(i), nbytes=4)
            assert (a.partition, a.offset) == (b.partition, b.offset)

    def test_typed_errors(self):
        broker = make()
        with pytest.raises(UnknownTopicError):
            broker.fetch("nope", 0, 0)
        with pytest.raises(UnknownTopicError):
            broker.produce("nope", 1)
        with pytest.raises(UnknownPartitionError):
            broker.fetch("t", 6, 0)
        with pytest.raises(ValueError):
            broker.create_topic(TopicConfig("t"))
        with pytest.raises(ValueError):
            ShardedBroker(0)


class TestRouting:
    def test_same_key_same_shard(self):
        broker = make()
        records = [
            broker.produce("t", i, key="stable-key", nbytes=1)
            for i in range(10)
        ]
        # All on one shard, one partition, dense offsets.
        assert [r.offset for r in records] == list(range(10))
        populated = [
            s for s in range(3) if broker.shards[s].topic_records("t")
        ]
        assert len(populated) == 1

    def test_keyless_round_robins_across_shards(self):
        broker = make(n_shards=3)
        for i in range(9):
            broker.produce("t", i, nbytes=1)
        assert [s.topic_records("t") for s in broker.shards] == [3, 3, 3]

    def test_shard_hash_independent_of_partition_hash(self):
        # With equal shard and partition counts, a correlated hash would
        # pin every key to (shard i, local i); the salt must break that.
        broker = ShardedBroker(4)
        broker.create_topic(TopicConfig("t", n_partitions=4))
        off_diagonal = 0
        for i in range(64):
            record = broker.produce("t", i, key=f"key-{i}", nbytes=1)
            shard = broker._shard_for("t", f"key-{i}")  # pure for keyed records
            if shard != record.partition:  # record.partition is local
                off_diagonal += 1
        assert off_diagonal > 0

    def test_accounting_sums_shards(self):
        broker = make()
        for i in range(12):
            broker.produce("t", i, key=f"k{i}", nbytes=10)
        assert broker.topic_records("t") == 12
        assert broker.topic_bytes("t") == 120
        assert len(list(broker.iter_all("t"))) == 12


class TestConsumerOverShards:
    def test_consumer_sees_all_shards(self):
        broker = make()
        for i in range(30):
            broker.produce("t", i, key=f"k{i % 9}", nbytes=1)
        consumer = Consumer(broker, "t", "g")
        values = sorted(r.value for r in consumer.poll(max_records=None))
        assert values == list(range(30))
        consumer.commit()
        assert broker.lag("g", "t") == 0

    def test_explicit_partition_assignment(self):
        broker = make(n_shards=2, n_partitions=2)
        consumer = Consumer(broker, "t", "g", partitions=[1, 3])
        assert consumer.partitions == [1, 3]
        with pytest.raises(ValueError):
            Consumer(broker, "t", "g", partitions=[4])

    def test_committed_offsets_are_per_shard(self):
        broker = make(n_shards=2, n_partitions=1)
        # Force both shards to hold records via keyless round-robin.
        for i in range(8):
            broker.produce("t", i, nbytes=1)
        consumer = Consumer(broker, "t", "g")
        consumer.poll(max_records=None)
        consumer.commit()
        # Global partitions 0 and 1 are shard0/local0 and shard1/local0:
        # each shard's own offset store holds its half.
        assert broker.committed("g", "t", 0) == 4
        assert broker.committed("g", "t", 1) == 4
        assert broker.shards[0].committed("g", "t", 0) == 4
        assert broker.shards[1].committed("g", "t", 0) == 4

    def test_untouched_shard_never_marked_committed(self):
        """Satellite regression: the PR-3 touched-only commit contract
        must hold per shard — consuming shard A's records cannot write
        offsets for shard B's partitions."""
        broker = make(n_shards=3, n_partitions=2)
        # All records on one key -> exactly one (shard, partition).
        for i in range(10):
            broker.produce("t", i, key="only-key", nbytes=1)
        (touched_shard,) = [
            s for s in range(3) if broker.shards[s].topic_records("t")
        ]
        consumer = Consumer(broker, "t", "g")
        assert len(consumer.poll(max_records=None)) == 10
        consumer.commit()
        for s, inner in enumerate(broker.shards):
            if s == touched_shard:
                assert inner._group_offsets, "consumed shard must commit"
            else:
                assert inner._group_offsets == {}, (
                    f"untouched shard {s} was marked committed"
                )

    def test_fresh_consumer_commit_is_noop_on_every_shard(self):
        broker = make()
        for i in range(6):
            broker.produce("t", i, nbytes=1)
        Consumer(broker, "t", "g").commit()
        assert all(s._group_offsets == {} for s in broker.shards)


class TestPerShardRetention:
    def test_shards_trim_on_their_own_watermark(self):
        """Satellite: one shard over its byte budget must trim without
        the under-budget shards losing anything."""
        policy = RetentionPolicy(max_bytes=100)
        broker = ShardedBroker(2)
        broker.create_topic(
            TopicConfig("t", n_partitions=1, retention=policy)
        )
        # shard of a key is stable; find one key per shard.
        by_shard = {}
        i = 0
        while len(by_shard) < 2:
            key = f"probe-{i}"
            by_shard.setdefault(broker._shard_for("t", key), key)
            i += 1
        heavy, light = by_shard[0], by_shard[1]
        for j in range(10):
            broker.produce("t", j, key=heavy, timestamp=float(j), nbytes=30)
        broker.produce("t", 99, key=light, timestamp=0.0, nbytes=30)
        deleted = broker.enforce_retention(now=100.0)
        assert deleted["t"] > 0
        assert broker.shards[0].topic_bytes("t") <= 100
        # The light shard kept its lone (old!) record: its own byte
        # watermark never tripped, and age-based trimming is unset.
        assert broker.shards[1].topic_records("t") == 1

    def test_skip_counter_labeled_per_shard(self):
        policy = RetentionPolicy(max_age_s=10.0)
        broker = ShardedBroker(2)
        broker.create_topic(
            TopicConfig("t", n_partitions=1, retention=policy)
        )
        by_shard = {}
        i = 0
        while len(by_shard) < 2:
            key = f"probe-{i}"
            by_shard.setdefault(broker._shard_for("t", key), key)
            i += 1
        consumer = Consumer(broker, "t", "skip-group")
        # Old records on shard 0 only; fresh ones on shard 1.
        for j in range(4):
            broker.produce("t", j, key=by_shard[0], timestamp=0.0, nbytes=1)
        broker.produce("t", 9, key=by_shard[1], timestamp=95.0, nbytes=1)
        broker.enforce_retention(now=100.0)  # trims shard 0's 4 records
        before = [
            METRICS.counter(
                "stream.skipped_by_retention", topic="t", shard=s
            )
            for s in range(2)
        ]
        consumer.poll(max_records=None)
        after = [
            METRICS.counter(
                "stream.skipped_by_retention", topic="t", shard=s
            )
            for s in range(2)
        ]
        assert after[0] - before[0] == 4
        assert after[1] - before[1] == 0
        assert consumer.skipped_by_retention == 4
