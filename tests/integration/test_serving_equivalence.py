"""The PR's acceptance proofs: sharding and serving change no byte.

Three contracts:

* **Sharded == unsharded.**  The same seeded deployment run over a
  3-shard broker produces byte-identical Gold/Silver tables *and* span
  structure to the single-broker run.  The framework keys each window's
  records ``machine:topic``, so every (topic, window) batch lands wholly
  on one (shard, partition) and per-partition order — the only order the
  pipeline consumes — is untouched.
* **Gateway == direct call.**  Every gateway-served payload digests
  identically to calling the endpoint as a library function — across
  cache hits too, including after a lifecycle tick moves the store
  generation.
* **Shard outage is absorbed.**  A fetch fault injected on one shard is
  retried through the standard policy; consumption completes with no
  loss and the other shards never see the outage.
"""

import numpy as np
import pytest

from repro.core import DataPlaneOptions, ODAFramework
from repro.faults import FaultInjector, FaultyBroker
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import TRACER, reset_all
from repro.serve import Request, payload_digest
from repro.stream import Consumer, GroupCoordinator, ShardedBroker, TopicConfig
from repro.telemetry import MINI, synthetic_job_mix


def _structure(spans):
    """Span projection with durations excluded (IDs, links, attrs)."""
    return sorted(
        (s.trace_id, s.span_id, s.parent_id, s.name, s.seq,
         tuple(sorted(s.attrs.items())))
        for s in spans
    )


def assert_tables_equal(a, b):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca, cb = a[name], b[name]
        assert ca.dtype == cb.dtype
        if ca.dtype == object:
            assert list(ca) == list(cb)
        else:
            assert ca.tobytes() == cb.tobytes()


def run_deployment(options, n_windows=2, window_s=30.0):
    reset_all()
    allocation = synthetic_job_mix(
        MINI, 0.0, 600.0, np.random.default_rng(11)
    )
    fw = ODAFramework(MINI, allocation, seed=5, options=options)
    fw.run(0.0, n_windows * window_s, window_s)
    return fw, TRACER.finished()


class TestShardedEqualsUnsharded:
    @pytest.fixture(scope="class")
    def both_runs(self):
        single, single_spans = run_deployment(DataPlaneOptions())
        with single:
            single_tables = {
                name: single.tiers.query_online(name)
                for name in ("power.gold_profiles", "power.silver")
            }
        sharded, sharded_spans = run_deployment(DataPlaneOptions(shards=3))
        return single_tables, single_spans, sharded, sharded_spans

    def test_broker_is_actually_sharded(self, both_runs):
        *_, sharded, _ = both_runs
        assert isinstance(sharded.broker, ShardedBroker)
        assert sharded.broker.n_shards == 3
        populated = [
            s for s, shard in enumerate(sharded.broker.shards)
            if any(shard.topic_records(t) for t in shard.topics())
        ]
        assert len(populated) > 1, "all topics landed on one shard"

    def test_gold_and_silver_tables_byte_identical(self, both_runs):
        single_tables, _, sharded, _ = both_runs
        with sharded:
            for name, single_table in single_tables.items():
                sharded_table = sharded.tiers.query_online(name)
                assert sharded_table.num_rows > 0
                assert_tables_equal(single_table, sharded_table)

    def test_span_structure_byte_identical(self, both_runs):
        _, single_spans, _, sharded_spans = both_runs
        assert _structure(single_spans) == _structure(sharded_spans)


class TestGatewayEqualsDirect:
    @pytest.fixture(scope="class")
    def deployment(self):
        # 5 windows so every OCEAN dataset crosses compact_min_parts;
        # lifecycle scheduling stays off during the run so the manual
        # tick below is the first maintenance pass and has real
        # rewrites to commit.
        fw, _ = run_deployment(DataPlaneOptions(), n_windows=5)
        with fw:
            job_id = fw.allocation.jobs[0].job_id
            requests = [
                Request.make("t0", "system_power_view", t0=0.0, t1=60.0),
                Request.make("t1", "job_overview", job_id=job_id),
                Request.make("t2", "top_jobs_by_energy", n=5),
                Request.make("t0", "job_power_profile", job_id=job_id),
                Request.make("t3", "cooling_plant_view", t0=0.0, t1=60.0),
            ]
            yield fw, requests

    def direct_digests(self, gateway, requests):
        return [
            payload_digest(
                gateway.endpoints[r.endpoint](**r.kwargs())
            )
            for r in requests
        ]

    def test_served_cached_match_direct(self, deployment):
        fw, requests = deployment
        with fw.serving_gateway() as gateway:
            direct = self.direct_digests(gateway, requests)
            served = gateway.submit_many(requests)
            cached = gateway.submit_many(requests)

        assert [e.status for e in served] == ["ok"] * len(requests)
        assert [e.status for e in cached] == ["cached"] * len(requests)
        assert [e.digest for e in served] == direct
        assert [e.digest for e in cached] == direct
        # Digest equality is byte equality of canonical payloads; spot
        # check one table payload end to end as well.
        view = served[0].payload
        again = gateway.endpoints["system_power_view"](t0=0.0, t1=60.0)
        assert_tables_equal(view, again)

    def test_equivalence_survives_lifecycle_invalidation(self, deployment):
        fw, requests = deployment
        with fw.serving_gateway() as gateway:
            warm = gateway.submit_many(requests)
            assert [e.status for e in gateway.submit_many(requests)] == (
                ["cached"] * len(requests)
            )
            before = gateway.generation()
            fw.lifecycle.tick(300.0)
            assert fw.tiers.data_version() > before

            after = gateway.submit_many(requests)
            # Cache entries for the old generation are stale: recomputed.
            assert [e.status for e in after] == ["ok"] * len(requests)
            assert all(e.generation > before for e in after)
            # And every recomputed answer still equals the direct call
            # against the post-tick store.
            assert [e.digest for e in after] == self.direct_digests(
                gateway, requests
            )
            assert gateway.cache.invalidated > 0
            del warm


class TestShardOutageAbsorbed:
    def _filled_broker(self, n=30):
        broker = ShardedBroker(3)
        broker.create_topic(TopicConfig("t", n_partitions=2))
        for i in range(n):
            broker.produce("t", i, key=f"k{i % 7}", nbytes=1)
        return broker

    def test_transient_shard_fetch_fault_is_retried(self):
        broker = self._filled_broker()
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(
                        "broker.shard1.fetch",
                        FaultKind.FETCH_ERROR,
                        at_call=1,
                    )
                ]
            )
        )
        broker.shards[1] = FaultyBroker(
            broker.shards[1], injector, site_prefix="broker.shard1"
        )
        consumer = Consumer(broker, "t", "g")
        values = sorted(r.value for r in consumer.poll(max_records=None))
        assert values == list(range(30))  # outage absorbed, nothing lost
        assert injector.injected == [
            ("broker.shard1.fetch", 1, FaultKind.FETCH_ERROR)
        ]

    def test_other_shards_never_see_the_outage(self):
        broker = self._filled_broker()
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(
                        "broker.shard2.fetch",
                        FaultKind.FETCH_ERROR,
                        at_call=1,
                        repeat=2,
                    )
                ]
            )
        )
        for s in range(3):
            broker.shards[s] = FaultyBroker(
                broker.shards[s], injector, site_prefix=f"broker.shard{s}"
            )
        consumer = Consumer(broker, "t", "g")
        assert len(consumer.poll(max_records=None)) == 30
        assert {site for site, _, _ in injector.injected} == {
            "broker.shard2.fetch"
        }

    def test_group_consumption_through_shard_outage(self):
        broker = self._filled_broker()
        injector = FaultInjector(
            FaultPlan(
                [
                    FaultSpec(
                        "broker.shard0.fetch",
                        FaultKind.FETCH_ERROR,
                        at_call=1,
                    )
                ]
            )
        )
        broker.shards[0] = FaultyBroker(
            broker.shards[0], injector, site_prefix="broker.shard0"
        )
        coord = GroupCoordinator(broker, "t", "g", seed=2)
        a = coord.join("a")
        b = coord.join("b")
        seen = [r.value for r in a.poll(max_records=None)]
        seen += [r.value for r in b.poll(max_records=None)]
        coord.leave("a")  # rebalance mid-outage-recovery
        seen += [r.value for r in b.poll(max_records=None)]
        assert sorted(seen) == list(range(30))
        assert injector.injected
