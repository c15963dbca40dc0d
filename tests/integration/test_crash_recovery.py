"""Crash/recovery chaos suite: the effectively-once contract under fire.

Every test builds the same streaming job twice — once fault-free (the
oracle) and once under a :class:`~repro.faults.plan.FaultPlan` with the
crash/restart harness supervising — and asserts the Gold output is
**byte-identical**.  All input is produced up front so that a full
replay from offset zero (the torn-checkpoint path) regenerates the same
micro-batch boundaries.
"""

import os
import warnings

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultyBroker,
    IdempotentTableSink,
    RetryPolicy,
    TornCheckpointStore,
    run_with_restarts,
)
from repro.obs import METRICS
from repro.pipeline import (
    CheckpointCorruptWarning,
    CheckpointStore,
    StreamingQuery,
    Watermark,
)
from repro.stream import Broker, TopicConfig

N_PARTITIONS = 2
N_RECORDS = 40
BATCH_BOUND = 7  # forces several micro-batches over the fixed input
RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.01)


def make_loaded_broker() -> Broker:
    """A broker with the full (fixed) input already produced.

    Producing everything up front is what makes replay-from-zero
    byte-identical: batch boundaries depend only on offsets, never on
    interleaving with production.
    """
    broker = Broker()
    broker.create_topic(TopicConfig("obs", N_PARTITIONS))
    rng = np.random.default_rng(1234)
    times = np.cumsum(rng.exponential(1.0, N_RECORDS))
    # A few out-of-order stragglers exercise the watermark under replay.
    times[10] = times[2]
    times[25] = times[5]
    for i in range(N_RECORDS):
        broker.produce("obs", float(times[i]), timestamp=float(times[i]))
    return broker


def records_to_table(records):
    ts = np.array([r.value for r in records], dtype=float)
    return ColumnTable({"timestamp": ts, "v": ts * 2.0})


def build_query(broker, sink, checkpoint):
    return StreamingQuery(
        "chaos-q",
        broker,
        "obs",
        records_to_table,
        sink,
        checkpoint,
        watermark=Watermark(delay_s=5.0),
        max_records_per_batch=BATCH_BOUND,
        retry_policy=RETRY,
    )


def oracle_bytes(tmp_path) -> bytes:
    """Gold output of a fault-free run of the same job."""
    sink = IdempotentTableSink()
    query = build_query(
        make_loaded_broker(), sink, CheckpointStore(str(tmp_path / "oracle"))
    )
    query.run_until_caught_up()
    assert query.lag() == 0
    return sink.result_bytes()


def run_chaos(tmp_path, plan, subdir="chaos"):
    """Supervised run of the job under ``plan``; returns (bytes, result,
    injector).  The sink and injector survive 'process death'; the
    checkpoint store is re-read from disk on every restart, exactly like
    a real worker coming back up."""
    broker_inner = make_loaded_broker()
    injector = FaultInjector(plan)
    broker = FaultyBroker(broker_inner, injector)
    sink = IdempotentTableSink()
    path = str(tmp_path / subdir)

    def make_query():
        checkpoint = TornCheckpointStore(CheckpointStore(path), injector)
        return build_query(broker, sink, checkpoint)

    with warnings.catch_warnings():
        # Quarantine warnings are an expected part of torn-write plans.
        warnings.simplefilter("ignore", CheckpointCorruptWarning)
        result = run_with_restarts(make_query)
    return sink.result_bytes(), result, injector


class TestFaultFree:
    def test_empty_plan_matches_oracle_with_no_restarts(self, tmp_path):
        gold = oracle_bytes(tmp_path)
        got, result, injector = run_chaos(tmp_path, FaultPlan())
        assert got == gold != b""
        assert result.clean
        assert injector.injected == []


class TestTransientFetchFaults:
    def test_retries_absorb_fetch_storm(self, tmp_path):
        """Bursts shorter than the retry budget never surface: same
        bytes, zero restarts, retries counted per site."""
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(FaultyBroker.SITE_FETCH, FaultKind.FETCH_ERROR, 1),
                FaultSpec(
                    FaultyBroker.SITE_FETCH, FaultKind.FETCH_ERROR, 4, repeat=2
                ),
            ]
        )
        before = METRICS.counter("faults.retry.query.fetch")
        got, result, _ = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.clean
        assert METRICS.counter("faults.retry.query.fetch") - before == 3

    def test_giveup_triggers_restart_and_recovers(self, tmp_path):
        """A burst outlasting the retry budget kills the run; the
        supervisor restarts from the checkpoint and output still
        matches."""
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(
                    FaultyBroker.SITE_FETCH,
                    FaultKind.FETCH_ERROR,
                    2,
                    repeat=RETRY.max_attempts,  # exhausts the budget
                )
            ]
        )
        before = METRICS.counter("faults.giveup.query.fetch")
        got, result, _ = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.giveups == 1
        assert result.restarts >= 1
        assert METRICS.counter("faults.giveup.query.fetch") - before == 1


class TestCrashRecovery:
    def test_crash_between_sink_and_checkpoint(self, tmp_path):
        """The classic window: sink wrote batch N, process died before
        the checkpoint.  Replay re-delivers batch N with the same id and
        the idempotent sink absorbs it."""
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [FaultSpec(TornCheckpointStore.SITE_COMMIT, FaultKind.CRASH, 2)]
        )
        got, result, _ = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.crashes == 1
        assert result.restarts == 1

    def test_repeated_crashes(self, tmp_path):
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(TornCheckpointStore.SITE_COMMIT, FaultKind.CRASH, 2),
                FaultSpec(TornCheckpointStore.SITE_COMMIT, FaultKind.CRASH, 5),
            ]
        )
        got, result, _ = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.crashes == 2
        assert result.restarts == 2

    def test_torn_checkpoint_quarantined_and_replayed(self, tmp_path):
        """A torn write leaves corrupt JSON; the restarted store
        quarantines it and the query replays from scratch — and the
        bytes still match the oracle."""
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(
                    TornCheckpointStore.SITE_COMMIT,
                    FaultKind.TORN_CHECKPOINT,
                    3,
                )
            ]
        )
        before = METRICS.counter("checkpoint.corrupt_quarantined")
        got, result, _ = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.crashes == 1
        assert METRICS.counter("checkpoint.corrupt_quarantined") - before == 1
        assert os.path.exists(
            str(tmp_path / "chaos" / "checkpoints.json.corrupt-0")
        )

    def test_mixed_plan(self, tmp_path):
        """Fetch faults, a crash, and a torn write in one run."""
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan(
            [
                FaultSpec(FaultyBroker.SITE_FETCH, FaultKind.FETCH_ERROR, 3),
                FaultSpec(TornCheckpointStore.SITE_COMMIT, FaultKind.CRASH, 2),
                FaultSpec(
                    TornCheckpointStore.SITE_COMMIT,
                    FaultKind.TORN_CHECKPOINT,
                    6,
                ),
                FaultSpec(
                    FaultyBroker.SITE_FETCH, FaultKind.SLOW_READ, 9, arg=0.5
                ),
            ]
        )
        got, result, injector = run_chaos(tmp_path, plan)
        assert got == gold
        assert result.crashes == 2  # the CRASH and the torn write's kill
        assert injector.virtual_delay_s == 0.5


class TestSeededPlans:
    SITE_KINDS = {
        FaultyBroker.SITE_FETCH: FaultKind.FETCH_ERROR,
        TornCheckpointStore.SITE_COMMIT: FaultKind.CRASH,
    }

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_seeded_chaos_matches_oracle(self, tmp_path, seed):
        gold = oracle_bytes(tmp_path)
        plan = FaultPlan.seeded(seed, self.SITE_KINDS, rate=0.15, horizon=60)
        got, _, _ = run_chaos(tmp_path, plan, subdir=f"seed{seed}")
        assert got == gold

    def test_seeded_run_replays_byte_for_byte(self, tmp_path):
        """Same seed, fresh world: identical injected-fault log AND
        identical output bytes — the replayability guarantee."""
        plan_a = FaultPlan.seeded(99, self.SITE_KINDS, rate=0.15, horizon=60)
        plan_b = FaultPlan.seeded(99, self.SITE_KINDS, rate=0.15, horizon=60)
        bytes_a, result_a, inj_a = run_chaos(tmp_path, plan_a, subdir="a")
        bytes_b, result_b, inj_b = run_chaos(tmp_path, plan_b, subdir="b")
        assert inj_a.injected == inj_b.injected != []
        assert bytes_a == bytes_b != b""
        assert result_a == result_b
