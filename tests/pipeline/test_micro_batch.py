"""Unit tests for the micro-batch streaming driver, including the
crash-recovery and effectively-once contracts."""

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.pipeline import CheckpointStore, StreamingQuery, Watermark
from repro.stream import Broker, ShardedBroker, TopicConfig


def make_broker(n_partitions=2):
    broker = Broker()
    broker.create_topic(TopicConfig("obs", n_partitions))
    return broker


def records_to_table(records):
    values = np.array([r.value for r in records], dtype=float)
    return ColumnTable({"timestamp": values, "v": values * 2})


class CollectingSink:
    """Idempotent sink: last write per batch_id wins."""

    def __init__(self, fail_on_batch=None):
        self.batches = {}
        self.calls = 0
        self.fail_on_batch = fail_on_batch

    def __call__(self, batch_id, table):
        self.calls += 1
        if batch_id == self.fail_on_batch:
            self.fail_on_batch = None  # fail once
            raise RuntimeError("sink crashed")
        self.batches[batch_id] = table

    def total_rows(self):
        return sum(t.num_rows for t in self.batches.values())


def make_query(broker, sink, checkpoint=None, watermark=None, **kw):
    return StreamingQuery(
        "q1",
        broker,
        "obs",
        records_to_table,
        sink,
        checkpoint or CheckpointStore(),
        watermark=watermark,
        **kw,
    )


class TestBasicDriver:
    def test_processes_available_records(self):
        broker = make_broker()
        for i in range(10):
            broker.produce("obs", float(i))
        sink = CollectingSink()
        query = make_query(broker, sink)
        result = query.run_once()
        assert result.records_in == 10
        assert result.rows_out == 10
        assert sink.total_rows() == 10

    def test_empty_trigger(self):
        query = make_query(make_broker(), CollectingSink())
        result = query.run_once()
        assert result.empty
        assert result.batch_id == 0

    def test_batch_ids_increment(self):
        broker = make_broker()
        sink = CollectingSink()
        query = make_query(broker, sink)
        broker.produce("obs", 1.0)
        r0 = query.run_once()
        broker.produce("obs", 2.0)
        r1 = query.run_once()
        assert (r0.batch_id, r1.batch_id) == (0, 1)

    def test_no_duplicate_processing(self):
        broker = make_broker()
        for i in range(5):
            broker.produce("obs", float(i))
        sink = CollectingSink()
        query = make_query(broker, sink)
        query.run_once()
        result = query.run_once()  # nothing new
        assert result.records_in == 0
        assert sink.total_rows() == 5

    def test_backpressure_bound(self):
        broker = make_broker(1)
        for i in range(25):
            broker.produce("obs", float(i))
        query = make_query(broker, CollectingSink(), max_records_per_batch=10)
        assert query.run_once().records_in == 10
        assert query.lag() == 15

    def test_run_until_caught_up(self):
        broker = make_broker(1)
        for i in range(25):
            broker.produce("obs", float(i))
        sink = CollectingSink()
        query = make_query(broker, sink, max_records_per_batch=10)
        results = query.run_until_caught_up()
        assert len(results) == 3
        assert query.lag() == 0
        assert sink.total_rows() == 25

    def test_catches_up_on_sharded_broker(self):
        """Positions advance on the global partition fetched: records
        from a sharded broker carry their shard-local partition."""
        broker = ShardedBroker(2)
        broker.create_topic(TopicConfig("obs", 1))  # global partitions 0, 1
        for i in range(6):
            broker.produce("obs", float(i))  # keyless: alternates shards
        sink = CollectingSink()
        query = make_query(broker, sink, max_records_per_batch=2)
        results = query.run_until_caught_up(max_batches=10)
        assert [r.records_in for r in results] == [2, 2, 2]
        assert query.lag() == 0
        assert sink.total_rows() == 6

    def test_invalid_batch_bound(self):
        with pytest.raises(ValueError):
            make_query(make_broker(), CollectingSink(), max_records_per_batch=0)


class TestRecovery:
    def test_restart_resumes_from_checkpoint(self):
        broker = make_broker()
        checkpoint = CheckpointStore()
        sink = CollectingSink()
        for i in range(5):
            broker.produce("obs", float(i))
        make_query(broker, sink, checkpoint).run_once()
        # "Crash" and restart with the same checkpoint store.
        for i in range(5, 8):
            broker.produce("obs", float(i))
        query2 = make_query(broker, sink, checkpoint)
        result = query2.run_once()
        assert result.batch_id == 1
        assert result.records_in == 3  # only the new records
        assert sink.total_rows() == 8

    def test_sink_failure_replays_same_batch_id(self):
        broker = make_broker()
        checkpoint = CheckpointStore()
        for i in range(5):
            broker.produce("obs", float(i))
        sink = CollectingSink(fail_on_batch=0)
        query = make_query(broker, sink, checkpoint)
        with pytest.raises(RuntimeError):
            query.run_once()
        # No checkpoint was written; a restarted query replays batch 0.
        query2 = make_query(broker, sink, checkpoint)
        result = query2.run_once()
        assert result.batch_id == 0
        assert result.records_in == 5
        assert sink.total_rows() == 5  # idempotent sink: exactly once

    def test_effectively_once_row_totals_after_crash(self):
        """At-least-once delivery + idempotent sink = no lost or extra rows."""
        broker = make_broker()
        checkpoint = CheckpointStore()
        sink = CollectingSink(fail_on_batch=1)
        for i in range(4):
            broker.produce("obs", float(i))
        query = make_query(broker, sink, checkpoint, max_records_per_batch=2)
        query.run_once()  # batch 0 ok
        with pytest.raises(RuntimeError):
            query.run_once()  # batch 1 crashes mid-sink
        query2 = make_query(broker, sink, checkpoint, max_records_per_batch=2)
        query2.run_until_caught_up()
        assert sink.total_rows() == 4

    def test_watermark_state_restored(self):
        broker = make_broker()
        checkpoint = CheckpointStore()
        sink = CollectingSink()
        broker.produce("obs", 100.0)
        wm1 = Watermark(delay_s=10.0)
        make_query(broker, sink, checkpoint, watermark=wm1).run_once()
        # Restart: the new watermark object resumes at max_event_time=100.
        wm2 = Watermark(delay_s=10.0)
        query2 = make_query(broker, sink, checkpoint, watermark=wm2)
        assert wm2.max_event_time == 100.0
        broker.produce("obs", 50.0)  # behind 100-10=90 -> late
        result = query2.run_once()
        assert result.rows_late == 1


class TestWatermarkIntegration:
    def test_late_rows_filtered_from_sink(self):
        broker = make_broker()
        sink = CollectingSink()
        wm = Watermark(delay_s=5.0)
        query = make_query(broker, sink, watermark=wm)
        broker.produce("obs", 100.0)
        query.run_once()
        broker.produce("obs", 10.0)  # very late
        result = query.run_once()
        assert result.rows_late == 1
        assert result.rows_out == 0
