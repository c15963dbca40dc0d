"""Regression tests for consumer commit semantics.

A consumer that has never polled must not rewrite its group's offsets:
commit() only writes partitions the consumer actually read or seeked.
"""

from repro.stream import Broker, Consumer, RetentionPolicy, TopicConfig


def make_broker(n_partitions=2) -> Broker:
    broker = Broker()
    broker.create_topic(TopicConfig("t", n_partitions, RetentionPolicy()))
    return broker


def test_commit_without_poll_is_noop():
    broker = make_broker()
    for i in range(10):
        broker.produce("t", i)
    worker = Consumer(broker, "t", group="g")
    assert len(worker.poll(None)) == 10
    worker.commit()
    committed = [broker.committed("g", "t", p) for p in range(2)]

    # A fresh group member that commits without polling must not move
    # the group's offsets back to its stale construction-time snapshot.
    for i in range(10, 14):
        broker.produce("t", i)
    bystander = Consumer(broker, "t", group="g")
    first_seen = [broker.committed("g", "t", p) for p in range(2)]
    for i in range(14, 18):
        broker.produce("t", i)
    resumed = Consumer(broker, "t", group="g")
    resumed.poll(None)
    resumed.commit()
    advanced = [broker.committed("g", "t", p) for p in range(2)]
    assert advanced != committed  # the group moved on

    bystander.commit()  # never polled: must change nothing
    assert [broker.committed("g", "t", p) for p in range(2)] == advanced
    assert first_seen == committed


def test_commit_after_seek_writes_only_seeked_partition():
    broker = make_broker()
    for i in range(8):
        broker.produce("t", i)
    reader = Consumer(broker, "t", group="g")
    reader.poll(None)
    reader.commit()
    before = [broker.committed("g", "t", p) for p in range(2)]

    seeker = Consumer(broker, "t", group="g")
    seeker.seek(0, 1)
    seeker.commit()
    after = [broker.committed("g", "t", p) for p in range(2)]
    assert after[0] == 1  # the seeked partition moved
    assert after[1] == before[1]  # the untouched one did not


def test_empty_poll_leaves_partition_untouched():
    """A poll that moves nothing must not make commit() rewrite offsets.

    Regression: the old poll path added every assigned partition to the
    touched set even when no records arrived and no gap was crossed, so
    a stale member's empty poll + commit dragged the group's offset back
    to its construction-time snapshot.
    """
    broker = make_broker()
    stale = Consumer(broker, "t", group="g")  # snapshots offsets [0, 0]
    # Another member advances the group while `stale` sits idle.
    for i in range(6):
        broker.produce("t", i)
    mover = Consumer(broker, "t", group="g")
    mover.poll(None)
    mover.commit()
    advanced = [broker.committed("g", "t", p) for p in range(2)]
    assert advanced == [3, 3]

    # Drain the log so the stale member's poll genuinely moves nothing.
    broker.enforce_retention(0.0)  # KEEP_ALL policy: trims nothing
    stale._positions = dict.fromkeys(stale.partitions, 3)  # caught up,
    stale._touched.clear()  # but has never polled/seeked itself
    assert stale.poll() == []
    stale.commit()
    assert [broker.committed("g", "t", p) for p in range(2)] == advanced


def test_retention_skip_counted_and_committable():
    """Skipping a retention-trimmed gap is accounted, not silent."""
    from repro.obs import METRICS

    broker = Broker()
    broker.create_topic(
        TopicConfig("t", 1, RetentionPolicy(max_age_s=10.0))
    )
    for i in range(8):
        broker.produce("t", i, timestamp=float(i))
    consumer = Consumer(broker, "t", group="g")
    # Age out the first 5 records (ts < 15 - 10) before the first poll.
    broker.enforce_retention(now=15.0)
    assert broker.earliest_offset("t", 0) == 5

    before = METRICS.counter("stream.skipped_by_retention", topic="t", shard=0)
    records = consumer.poll(None)
    assert [r.value for r in records] == [5, 6, 7]
    assert consumer.skipped_by_retention == 5
    after = METRICS.counter("stream.skipped_by_retention", topic="t", shard=0)
    assert after - before == 5
    consumer.commit()
    assert broker.committed("g", "t", 0) == 8


def test_gap_skip_with_empty_tail_still_commits_progress():
    """Crossing a trimmed gap into an empty tail is real progress: the
    new position must be committable even though no records came back."""
    broker = Broker()
    broker.create_topic(
        TopicConfig("t", 1, RetentionPolicy(max_age_s=10.0))
    )
    for i in range(4):
        broker.produce("t", i, timestamp=float(i))
    consumer = Consumer(broker, "t", group="g")
    broker.enforce_retention(now=100.0)  # everything aged out
    assert consumer.poll(None) == []
    assert consumer.skipped_by_retention == 4
    consumer.commit()
    # Committed past the gap: a restart will not re-skip (and re-count)
    # the same trimmed records.
    assert broker.committed("g", "t", 0) == 4


def test_poll_slices_matches_poll():
    b1, b2 = make_broker(), make_broker()
    for i in range(20):
        b1.produce("t", i)
        b2.produce("t", i)
    flat = Consumer(b1, "t", group="g").poll(None)
    sliced = Consumer(b2, "t", group="g").poll_slices(None)
    merged = [r for _, records in sliced for r in records]
    assert [(r.partition, r.offset, r.value) for r in flat] == [
        (r.partition, r.offset, r.value) for r in merged
    ]
