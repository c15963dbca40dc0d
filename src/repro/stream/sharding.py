"""Sharded broker: N independent logs behind one produce/fetch API.

The paper's hourglass makes the broker the single interface every
producer and consumer scales through; real deployments scale that waist
horizontally by sharding the log.  :class:`ShardedBroker` wraps N
ordinary :class:`~repro.stream.broker.Broker` instances and re-exposes
the exact client API, so :class:`~repro.stream.producer.Producer` and
:class:`~repro.stream.consumer.Consumer` work against it unchanged.

Addressing
----------
A topic created with ``n_partitions=k`` gets ``k`` partitions *per
shard*; clients see the flattened global index space
``g = shard * k + local`` (``topic_config`` reports ``n_shards * k``
partitions).  Shard assignment hashes the record key with a salted
CRC32 — deliberately independent of the per-shard partition hash, so a
key's shard and its partition within the shard are uncorrelated.
Keyless records round-robin across shards per topic.

Offsets, commits and retention are all per-shard state: each inner
broker keeps its own group offsets for its local partitions and trims
its own log on its own watermark (``enforce_retention`` simply fans
out).  With ``n_shards=1`` every code path reduces to the single-broker
behaviour bit for bit.

One asymmetry is deliberate: fetched :class:`Record` objects carry the
*shard-local* partition index they were stored under (the inner brokers
are ordinary brokers that know nothing of the flattening, and
re-stamping each record with the global index would rebuild every
frozen record on every read).  Consumers only use offsets, which are per
(shard, partition) and therefore unambiguous; use
:meth:`ShardedBroker.shard_of` / :meth:`ShardedBroker.global_partition`
to translate when labeling.
"""

from __future__ import annotations

import zlib
from typing import Any, Iterable

from repro.stream.broker import (
    Broker,
    Record,
    TopicConfig,
    UnknownPartitionError,
    UnknownTopicError,
)

__all__ = ["ShardedBroker"]

#: Salt prepended to keys before the shard hash so shard choice is
#: statistically independent of the in-shard partition choice (both are
#: CRC32 of the key otherwise, which would map every key to the same
#: (shard index == partition index) diagonal).
_SHARD_SALT = b"shard\x00"


class ShardedBroker:
    """N independent :class:`Broker` shards behind the broker API.

    Parameters
    ----------
    n_shards:
        Number of independent shards (must be positive).  The public
        :attr:`shards` list exposes the inner brokers so tests can wrap
        individual shards (e.g. with
        :class:`repro.faults.FaultyBroker`) to inject a shard-local
        outage.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.n_shards = n_shards
        #: Inner brokers, index == shard id.  Mutable on purpose: chaos
        #: tests replace entries with fault-injecting wrappers.
        self.shards: list[Any] = [Broker() for _ in range(n_shards)]
        self._topics: dict[str, TopicConfig] = {}
        self._per_shard: dict[str, int] = {}
        self._keyless_rr: dict[str, int] = {}

    # -- topic management ---------------------------------------------------

    def create_topic(self, config: TopicConfig) -> None:
        """Create the topic on every shard (ValueError if it exists).

        ``config.n_partitions`` is the per-shard partition count; the
        flattened config visible through :meth:`topic_config` reports
        ``n_shards * n_partitions``.
        """
        if config.name in self._topics:
            raise ValueError(f"topic {config.name!r} already exists")
        for shard in self.shards:
            shard.create_topic(config)
        self._topics[config.name] = TopicConfig(
            config.name,
            n_partitions=config.n_partitions * self.n_shards,
            retention=config.retention,
        )
        self._per_shard[config.name] = config.n_partitions
        self._keyless_rr[config.name] = 0

    def topics(self) -> list[str]:
        """All topic names, sorted."""
        return sorted(self._topics)

    def topic_config(self, topic: str) -> TopicConfig:
        """Flattened configuration (global partition count)."""
        try:
            return self._topics[topic]
        except KeyError:
            raise UnknownTopicError(topic) from None

    # -- addressing ---------------------------------------------------------

    def _k(self, topic: str) -> int:
        try:
            return self._per_shard[topic]
        except KeyError:
            raise UnknownTopicError(topic) from None

    def _locate(self, topic: str, partition: int) -> tuple[Any, int]:
        """(shard broker, local partition) for a global partition index."""
        k = self._k(topic)
        total = k * self.n_shards
        if not 0 <= partition < total:
            raise UnknownPartitionError(topic, partition, total)
        return self.shards[partition // k], partition % k

    def shard_of(self, partition: int, topic: str) -> int:
        """Shard owning a global partition index of ``topic``."""
        self._locate(topic, partition)  # unknown topic / partition raise
        return partition // self._per_shard[topic]

    def global_partition(self, shard: int, local: int, topic: str) -> int:
        """Flattened global index of (shard, shard-local partition)."""
        k = self._k(topic)
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range [0, {self.n_shards})")
        if not 0 <= local < k:
            raise UnknownPartitionError(topic, local, k)
        return shard * k + local

    def _shard_for(self, topic: str, key: str | None) -> int:
        if key is None:
            rr = self._keyless_rr[topic]
            self._keyless_rr[topic] = rr + 1
            return rr % self.n_shards
        return zlib.crc32(_SHARD_SALT + key.encode("utf-8")) % self.n_shards

    # -- produce / fetch ----------------------------------------------------

    def produce(
        self,
        topic: str,
        value: Any,
        *,
        key: str | None = None,
        timestamp: float = 0.0,
        nbytes: int = 0,
    ) -> Record:
        """Append one record to its key's shard (round-robin if keyless)."""
        self._k(topic)  # raise UnknownTopicError before moving the cursor
        s = self._shard_for(topic, key)
        return self.shards[s].produce(
            topic, value, key=key, timestamp=timestamp, nbytes=nbytes
        )

    def fetch(
        self,
        topic: str,
        partition: int,
        from_offset: int,
        max_records: int | None = 1000,
    ) -> list[Record]:
        """Read from a global partition (delegates to its shard)."""
        shard, local = self._locate(topic, partition)
        return shard.fetch(topic, local, from_offset, max_records)

    # -- offsets and lag ----------------------------------------------------

    def earliest_offset(self, topic: str, partition: int) -> int:
        """First retained offset of a global partition."""
        shard, local = self._locate(topic, partition)
        return shard.earliest_offset(topic, local)

    def latest_offset(self, topic: str, partition: int) -> int:
        """High watermark of a global partition."""
        shard, local = self._locate(topic, partition)
        return shard.latest_offset(topic, local)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Commit a group offset on the owning shard only."""
        shard, local = self._locate(topic, partition)
        shard.commit(group, topic, local, offset)

    def committed(self, group: str, topic: str, partition: int) -> int:
        """Committed next-read offset on the owning shard (0 if never)."""
        shard, local = self._locate(topic, partition)
        return shard.committed(group, topic, local)

    def lag(self, group: str, topic: str) -> int:
        """Unconsumed records for the group summed over all shards."""
        self._k(topic)
        return sum(shard.lag(group, topic) for shard in self.shards)

    # -- retention and accounting -------------------------------------------

    def enforce_retention(self, now: float) -> dict[str, int]:
        """Trim every shard independently on its own watermark."""
        deleted: dict[str, int] = {}
        for shard in self.shards:
            for name, n in shard.enforce_retention(now).items():
                deleted[name] = deleted.get(name, 0) + n
        return deleted

    def topic_bytes(self, topic: str) -> int:
        """Retained payload bytes across all shards."""
        self._k(topic)
        return sum(shard.topic_bytes(topic) for shard in self.shards)

    def topic_records(self, topic: str) -> int:
        """Retained record count across all shards."""
        self._k(topic)
        return sum(shard.topic_records(topic) for shard in self.shards)

    def iter_all(self, topic: str) -> Iterable[Record]:
        """All retained records, global-partition-major (for tests)."""
        self._k(topic)
        for shard in self.shards:
            yield from shard.iter_all(topic)
