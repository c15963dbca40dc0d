"""The partitioned-log broker.

Semantics follow Kafka closely because the paper's pipelines depend on
them: producers append to a partition chosen by key hash; each partition
assigns dense monotonically increasing offsets; consumers in a group share
partitions and commit offsets back to the broker; retention trims the log
head but never reorders or mutates records.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.stream.retention import RetentionPolicy

__all__ = [
    "Record",
    "TopicConfig",
    "Broker",
    "UnknownTopicError",
    "UnknownPartitionError",
]


class UnknownTopicError(KeyError):
    """Raised for operations against a topic that was never created.

    Subclasses ``KeyError`` so pre-existing ``except KeyError`` handlers
    (and tests) keep working, but carries an actionable message instead
    of a bare topic name.
    """

    def __init__(self, topic: str) -> None:
        super().__init__(topic)
        self.topic = topic

    def __str__(self) -> str:
        return (
            f"unknown topic {self.topic!r}: create it with "
            "Broker.create_topic(TopicConfig(...)) before producing/fetching"
        )


class UnknownPartitionError(IndexError):
    """Raised when a partition index is out of range for a topic."""

    def __init__(self, topic: str, partition: int, n_partitions: int) -> None:
        super().__init__(
            f"partition {partition} out of range for topic {topic!r} "
            f"with {n_partitions} partitions"
        )
        self.topic = topic
        self.partition = partition
        self.n_partitions = n_partitions


@dataclass(frozen=True)
class Record:
    """One immutable log entry."""

    topic: str
    partition: int
    offset: int
    timestamp: float
    key: str | None
    value: Any
    nbytes: int

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be non-negative")


@dataclass(frozen=True)
class TopicConfig:
    """Creation-time configuration of a topic."""

    name: str
    n_partitions: int = 4
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)

    def __post_init__(self) -> None:
        if self.n_partitions <= 0:
            raise ValueError("n_partitions must be positive")
        if not self.name:
            raise ValueError("topic name must be non-empty")


class _Partition:
    """A single append-only log with head trimming."""

    __slots__ = ("records", "base_offset", "next_offset", "total_bytes")

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.base_offset = 0  # offset of records[0]
        self.next_offset = 0  # offset the next append receives
        self.total_bytes = 0

    def append(self, record: Record) -> None:
        self.records.append(record)
        self.next_offset += 1
        self.total_bytes += record.nbytes

    def read(
        self, from_offset: int, max_records: int | None = None
    ) -> list[Record]:
        """Records from ``from_offset``, capped at ``max_records``, as a
        fresh list the log never changes afterwards."""
        start = max(from_offset, self.base_offset) - self.base_offset
        if max_records is None:
            return self.records[start:]
        return self.records[start : start + max_records]

    def trim(self, policy: RetentionPolicy, now: float) -> int:
        """Delete head records per policy; returns number deleted."""
        if policy.unbounded or not self.records:
            return 0
        cut = 0
        if policy.max_age_s is not None:
            horizon = now - policy.max_age_s
            while cut < len(self.records) and self.records[cut].timestamp < horizon:
                cut += 1
        if policy.max_bytes is not None:
            remaining = self.total_bytes - sum(
                r.nbytes for r in self.records[:cut]
            )
            while cut < len(self.records) and remaining > policy.max_bytes:
                remaining -= self.records[cut].nbytes
                cut += 1
        if cut:
            self.total_bytes -= sum(r.nbytes for r in self.records[:cut])
            del self.records[:cut]
            self.base_offset += cut
        return cut


def _partition_for(key: str | None, n_partitions: int, fallback: int) -> int:
    """Deterministic key-hash partitioner (round-robin when keyless)."""
    if key is None:
        return fallback % n_partitions
    return zlib.crc32(key.encode("utf-8")) % n_partitions


class Broker:
    """An in-process multi-topic log broker.

    The broker is single-node (the paper's is a cluster) but the client
    semantics — the part the framework's correctness rests on — are
    identical: per-partition ordering, dense offsets, committed-offset
    consumer groups, head-only retention.
    """

    #: A plain broker is the degenerate single-shard case; consumers
    #: label per-shard metrics through :meth:`shard_of` without caring
    #: whether they talk to a :class:`~repro.stream.sharding.ShardedBroker`.
    n_shards = 1

    def __init__(self) -> None:
        self._topics: dict[str, TopicConfig] = {}
        # Topic topology is frozen at framework construction.
        self._partitions: dict[str, list[_Partition]] = {}
        self._group_offsets: dict[tuple[str, str, int], int] = {}
        self._keyless_rr: dict[str, int] = {}

    # -- topic management ---------------------------------------------------

    def create_topic(self, config: TopicConfig) -> None:
        """Create a topic (ValueError if it exists)."""
        if config.name in self._topics:
            raise ValueError(f"topic {config.name!r} already exists")
        self._topics[config.name] = config
        self._partitions[config.name] = [
            _Partition() for _ in range(config.n_partitions)
        ]
        self._keyless_rr[config.name] = 0

    def topics(self) -> list[str]:
        """All topic names, sorted."""
        return sorted(self._topics)

    def topic_config(self, topic: str) -> TopicConfig:
        """Configuration of ``topic`` (UnknownTopicError if unknown)."""
        try:
            return self._topics[topic]
        except KeyError:
            raise UnknownTopicError(topic) from None

    def shard_of(self, partition: int, topic: str) -> int:
        """Shard owning a partition: always 0 on a single-node broker."""
        self._part(topic, partition)
        return 0

    def _parts(self, topic: str) -> list[_Partition]:
        try:
            return self._partitions[topic]
        except KeyError:
            raise UnknownTopicError(topic) from None

    def _part(self, topic: str, partition: int) -> _Partition:
        parts = self._parts(topic)
        if not 0 <= partition < len(parts):
            raise UnknownPartitionError(topic, partition, len(parts))
        return parts[partition]

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
        """Append one record; returns it with its assigned offset."""
        parts = self._parts(topic)
        if key is None:
            fallback = self._keyless_rr[topic]
            self._keyless_rr[topic] = fallback + 1
        else:
            fallback = 0
        p = _partition_for(key, len(parts), fallback)
        record = Record(
            topic=topic,
            partition=p,
            offset=parts[p].next_offset,
            timestamp=timestamp,
            key=key,
            value=value,
            nbytes=nbytes,
        )
        parts[p].append(record)
        return record

    def fetch(
        self,
        topic: str,
        partition: int,
        from_offset: int,
        max_records: int | None = 1000,
    ) -> list[Record]:
        """Read up to ``max_records`` from ``from_offset`` (may be trimmed);
        ``max_records=None`` reads to the high watermark."""
        return self._part(topic, partition).read(from_offset, max_records)

    # -- offsets and lag ----------------------------------------------------

    def earliest_offset(self, topic: str, partition: int) -> int:
        """First retained offset."""
        return self._part(topic, partition).base_offset

    def latest_offset(self, topic: str, partition: int) -> int:
        """Offset the next produced record will get (= high watermark)."""
        return self._part(topic, partition).next_offset

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Record ``group``'s progress: next offset it wants to read."""
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self._group_offsets[(group, topic, partition)] = offset

    def committed(self, group: str, topic: str, partition: int) -> int:
        """Committed next-read offset for the group (0 if never committed)."""
        return self._group_offsets.get((group, topic, partition), 0)

    def lag(self, group: str, topic: str) -> int:
        """Total records the group has not yet consumed across partitions."""
        total = 0
        for p in range(len(self._parts(topic))):
            total += max(
                0, self.latest_offset(topic, p) - self.committed(group, topic, p)
            )
        return total

    # -- retention and accounting -------------------------------------------

    def enforce_retention(self, now: float) -> dict[str, int]:
        """Apply every topic's retention policy; returns deletions/topic."""
        deleted = {}
        for name, config in self._topics.items():
            n = sum(
                part.trim(config.retention, now)
                for part in self._partitions[name]
            )
            if n:
                deleted[name] = n
        return deleted

    def topic_bytes(self, topic: str) -> int:
        """Retained payload bytes in ``topic``."""
        return sum(p.total_bytes for p in self._parts(topic))

    def topic_records(self, topic: str) -> int:
        """Retained record count in ``topic``."""
        return sum(len(p.records) for p in self._parts(topic))

    def iter_all(self, topic: str) -> Iterable[Record]:
        """All retained records of a topic, partition-major (for tests)."""
        for part in self._parts(topic):
            yield from part.records
