"""Consumer-group rebalancing: ownership, determinism, no-loss laws.

Satellite coverage: every (shard, partition) is owned by exactly one
consumer per generation; assignments are byte-identical for the same
seed and membership; no record is lost or double-consumed across
join/leave sequences.
"""

import itertools

import pytest

from repro.obs import METRICS
from repro.stream import (
    GroupCoordinator,
    ShardedBroker,
    TopicConfig,
    assign_range,
    assign_round_robin,
)


def make_broker(n_shards=3, n_partitions=2, topic="t") -> ShardedBroker:
    broker = ShardedBroker(n_shards)
    broker.create_topic(TopicConfig(topic, n_partitions=n_partitions))
    return broker


class TestStrategies:
    def test_round_robin_deals_one_at_a_time(self):
        got = assign_round_robin(range(7), ["b", "a", "c"])
        assert got == {"a": [0, 3, 6], "b": [1, 4], "c": [2, 5]}

    def test_round_robin_rotation_shifts_first_owner(self):
        got = assign_round_robin(range(6), ["a", "b", "c"], rotation=1)
        assert got == {"a": [2, 5], "b": [0, 3], "c": [1, 4]}

    def test_range_is_contiguous(self):
        got = assign_range(range(7), ["b", "a", "c"])
        assert got == {"a": [0, 1, 2], "b": [3, 4], "c": [5, 6]}
        for parts in got.values():
            assert parts == list(range(parts[0], parts[0] + len(parts)))

    def test_range_rotation_moves_larger_chunk(self):
        got = assign_range(range(7), ["a", "b", "c"], rotation=2)
        # Rotated order is c, a, b; c takes the first (larger) range.
        assert got == {"a": [3, 4], "b": [5, 6], "c": [0, 1, 2]}

    def test_range_whole_shards_when_arithmetic_allows(self):
        # 3 shards x 2 partitions, 3 members: each member gets exactly
        # one shard's pair of partitions.
        broker = make_broker(n_shards=3, n_partitions=2)
        got = assign_range(range(6), ["a", "b", "c"])
        for parts in got.values():
            shards = {broker.shard_of(p, "t") for p in parts}
            assert len(shards) == 1

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            assign_round_robin(range(4), [])
        with pytest.raises(ValueError):
            assign_range(range(4), [])


class TestCoordinatorMembership:
    def test_every_partition_owned_exactly_once_per_generation(self):
        # Property: across an arbitrary join/leave sequence, each
        # generation's assignment is a partition (in the set sense) of
        # the global partition space.
        for strategy in ("round_robin", "range"):
            broker = make_broker()
            coord = GroupCoordinator(
                broker, "t", f"g-{strategy}", seed=7, strategy=strategy
            )
            script = [
                ("join", "a"),
                ("join", "b"),
                ("join", "c"),
                ("leave", "b"),
                ("join", "d"),
                ("leave", "a"),
                ("leave", "c"),
            ]
            for op, name in script:
                (coord.join if op == "join" else coord.leave)(name)
                owned = list(
                    itertools.chain.from_iterable(
                        coord.assignments().values()
                    )
                )
                assert sorted(owned) == list(range(6)), (
                    f"{strategy}: generation {coord.generation} does not "
                    f"partition the space: {coord.assignments()}"
                )

    def test_generation_numbering_and_gauge(self):
        broker = make_broker()
        coord = GroupCoordinator(broker, "t", "gen-group")
        a = coord.join("a")
        assert coord.generation == 1 and a.generation == 1
        b = coord.join("b")
        assert coord.generation == 2
        assert a.generation == 2 and b.generation == 2
        coord.leave("a")
        assert coord.generation == 3 and b.generation == 3
        assert (
            METRICS.gauge(
                "stream.group_generation", topic="t", group="gen-group"
            )
            == 3
        )

    def test_join_leave_validation(self):
        broker = make_broker()
        coord = GroupCoordinator(broker, "t", "g")
        coord.join("a")
        with pytest.raises(ValueError):
            coord.join("a")
        with pytest.raises(ValueError):
            coord.leave("ghost")
        with pytest.raises(ValueError):
            GroupCoordinator(broker, "t", "g", strategy="sticky")

    def test_left_member_handle_is_dead(self):
        broker = make_broker()
        coord = GroupCoordinator(broker, "t", "g")
        a = coord.join("a")
        coord.leave("a")
        assert a.assignment == ()
        with pytest.raises(ValueError):
            a.poll()


class TestDeterminism:
    def test_same_seed_and_membership_same_assignment(self):
        # Byte-identical across runs AND independent of join order.
        def deal(join_order, seed, strategy):
            broker = make_broker()
            coord = GroupCoordinator(
                broker, "t", "g", seed=seed, strategy=strategy
            )
            for name in join_order:
                coord.join(name)
            return coord.assignments()

        for strategy in ("round_robin", "range"):
            baseline = deal(["a", "b", "c"], 42, strategy)
            for order in itertools.permutations(["a", "b", "c"]):
                assert deal(list(order), 42, strategy) == baseline

    def test_assignment_independent_of_generation_number(self):
        # Reaching the same membership via different histories (and so
        # different generation counts) deals the same hand.
        broker1 = make_broker()
        direct = GroupCoordinator(broker1, "t", "g", seed=5)
        direct.join("a")
        direct.join("b")

        broker2 = make_broker()
        detour = GroupCoordinator(broker2, "t", "g", seed=5)
        detour.join("a")
        detour.join("x")
        detour.join("b")
        detour.leave("x")
        assert detour.generation != direct.generation
        assert detour.assignments() == direct.assignments()

    def test_different_seeds_rotate_differently_somewhere(self):
        # The rotation must actually depend on the seed: over a spread
        # of seeds, at least two deals differ.
        deals = set()
        for seed in range(8):
            broker = make_broker()
            coord = GroupCoordinator(broker, "t", "g", seed=seed)
            coord.join("a")
            coord.join("b")
            coord.join("c")
            deals.add(tuple(sorted(coord.assignments().items())))
        assert len(deals) > 1


class TestNoLossNoDuplication:
    def _fill(self, broker, n, topic="t"):
        for i in range(n):
            broker.produce(topic, i, key=f"k{i % 11}", nbytes=1)

    def test_records_survive_join_and_leave(self):
        # Consume half the backlog as one member, rebalance twice (join
        # then leave), drain — every record seen exactly once.
        broker = make_broker()
        self._fill(broker, 60)
        coord = GroupCoordinator(broker, "t", "g", seed=3)
        a = coord.join("a")
        seen = [r.value for r in a.poll(max_records=25)]
        b = coord.join("b")  # commits a's progress, re-deals
        seen += [r.value for r in a.poll(max_records=None)]
        seen += [r.value for r in b.poll(max_records=None)]
        coord.leave("b")  # commits b, hands everything back to a
        seen += [r.value for r in a.poll(max_records=None)]
        self._fill(broker, 10)  # late arrivals post-rebalance
        seen += [r.value for r in a.poll(max_records=None)]
        assert sorted(seen) == sorted(list(range(60)) + list(range(10)))
        assert len(seen) == 70

    def test_mid_partition_position_survives_ownership_move(self):
        # One partition consumed partway; after the owner leaves, the
        # new owner resumes at the committed offset, not 0.
        broker = ShardedBroker(2)
        broker.create_topic(TopicConfig("t", n_partitions=1))
        self._fill(broker, 40)
        coord = GroupCoordinator(broker, "t", "g")
        a = coord.join("a")
        first = a.poll(max_records=15)
        assert len(first) == 15
        b = coord.join("b")
        coord.leave("a")  # a's progress committed on both rebalances
        rest = b.poll(max_records=None)
        seen = sorted(r.value for r in first + rest)
        assert seen == list(range(40))

    def test_strategies_agree_on_totals(self):
        for strategy in ("round_robin", "range"):
            broker = make_broker()
            self._fill(broker, 30)
            coord = GroupCoordinator(
                broker, "t", "g", seed=1, strategy=strategy
            )
            members = [coord.join(n) for n in ("a", "b", "c")]
            values = []
            for m in members:
                values += [r.value for r in m.poll(max_records=None)]
            assert sorted(values) == list(range(30))
