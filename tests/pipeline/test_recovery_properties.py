"""Property-based tests for recovery equivalence and group coverage.

The recovery property is the heart of the §V-B claim: *no matter where
a crash lands*, a restarted checkpointed pipeline with an idempotent
sink produces exactly the output of a crash-free run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable
from repro.pipeline import CheckpointStore, StreamingQuery
from repro.stream import Broker, Consumer, TopicConfig


def transform(records):
    return ColumnTable(
        {"timestamp": np.array([r.value for r in records], dtype=float)}
    )


class RecordingSink:
    def __init__(self, crash_on: set[int]):
        self.crash_on = set(crash_on)
        self.batches: dict[int, list[float]] = {}

    def __call__(self, batch_id, table):
        if batch_id in self.crash_on:
            self.crash_on.discard(batch_id)  # transient fault
            raise RuntimeError("crash")
        self.batches[batch_id] = table["timestamp"].tolist()

    def all_rows(self):
        return sorted(v for rows in self.batches.values() for v in rows)


class TestRecoveryEquivalence:
    @given(
        n_records=st.integers(1, 120),
        batch_size=st.integers(1, 40),
        crash_batches=st.sets(st.integers(0, 12), max_size=4),
        n_partitions=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_crash_pattern_yields_same_output(
        self, n_records, batch_size, crash_batches, n_partitions
    ):
        broker = Broker()
        broker.create_topic(TopicConfig("t", n_partitions))
        for i in range(n_records):
            broker.produce("t", float(i), key=f"k{i % 5}")

        sink = RecordingSink(crash_batches)
        store = CheckpointStore()
        for _ in range(40):  # restart loop
            query = StreamingQuery(
                "q", broker, "t", transform, sink, store,
                max_records_per_batch=batch_size,
            )
            try:
                query.run_until_caught_up()
                if query.lag() == 0:
                    break
            except RuntimeError:
                continue
        assert sink.all_rows() == [float(i) for i in range(n_records)]


class TestConsumerGroupCoverage:
    @given(
        n_records=st.integers(0, 100),
        n_partitions=st.integers(1, 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_group_members_partition_the_log(self, n_records, n_partitions):
        """One consumer reads every record exactly once; a second
        consumer in the same group resumes from its commit and reads
        nothing more."""
        broker = Broker()
        broker.create_topic(TopicConfig("t", n_partitions))
        for i in range(n_records):
            broker.produce("t", i, key=f"key-{i % 7}")
        consumer = Consumer(broker, "t", "g")
        consumed = [r.value for r in consumer.poll(10_000)]
        consumer.commit()
        assert Consumer(broker, "t", "g").poll(10_000) == []
        assert sorted(consumed) == list(range(n_records))
