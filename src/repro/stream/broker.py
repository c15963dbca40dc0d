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
from typing import Any, Iterable, Sequence

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

    def append_many(self, records: list[Record], nbytes_total: int) -> None:
        self.records.extend(records)
        self.next_offset += len(records)
        self.total_bytes += nbytes_total

    def read(
        self, from_offset: int, max_records: int | None = None
    ) -> list[Record]:
        """Records from ``from_offset``, capped at ``max_records``.

        When the requested range covers the whole retained log the
        internal list is returned without copying — callers must treat
        the result as read-only; ``trim`` never mutates handed-out lists
        (it rebinds), but appends after a whole-log read do extend it.
        """
        start = max(from_offset, self.base_offset) - self.base_offset
        n = len(self.records)
        if start >= n:
            return []
        if start == 0 and (max_records is None or max_records >= n):
            return self.records
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
            # Rebind rather than `del records[:cut]` so zero-copy lists
            # handed out by `read` stay valid for their holders.
            self.records = self.records[cut:]
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
        # Key -> CRC32 memo shared by the batch producer path; telemetry
        # keys (hostnames, stream names) recur every window.
        self._key_crc: dict[str, int] = {}

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

    def shard_of(self, partition: int, topic: str | None = None) -> int:
        """Shard owning a partition: always 0 on a single-node broker."""
        if partition < 0:
            raise UnknownPartitionError(topic or "?", partition, 0)
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

    def produce_many(
        self,
        topic: str,
        values: Sequence[Any],
        *,
        keys: Sequence[str | None] | None = None,
        key: str | None = None,
        timestamps: Sequence[float] | None = None,
        timestamp: float = 0.0,
        nbytes: Sequence[int] | int = 0,
    ) -> list[Record]:
        """Append a batch of records in one call.

        Equivalent to calling :meth:`produce` once per value in order —
        same partition assignment (including the keyless round-robin
        cursor), same offsets — but with the per-call bookkeeping done
        once per (partition, batch) instead of once per record.  ``keys``
        / ``timestamps`` / ``nbytes`` may be scalars (broadcast) or
        per-value sequences.
        """
        parts = self._parts(topic)
        n = len(values)
        if n == 0:
            return []
        n_parts = len(parts)
        if keys is not None and key is not None:
            raise ValueError("pass either key or keys, not both")
        if keys is not None and len(keys) != n:
            raise ValueError("keys must match values in length")
        if timestamps is not None and len(timestamps) != n:
            raise ValueError("timestamps must match values in length")
        sizes: Sequence[int]
        if isinstance(nbytes, (int, float)):
            sizes = [int(nbytes)] * n
        else:
            if len(nbytes) != n:
                raise ValueError("nbytes must match values in length")
            sizes = nbytes

        crc = self._key_crc
        if keys is not None:
            assigned = []
            for k in keys:
                if k is None:
                    rr = self._keyless_rr[topic]
                    self._keyless_rr[topic] = rr + 1
                    assigned.append(rr % n_parts)
                else:
                    h = crc.get(k)
                    if h is None:
                        h = crc[k] = zlib.crc32(k.encode("utf-8"))
                    assigned.append(h % n_parts)
        elif key is not None:
            h = crc.get(key)
            if h is None:
                h = crc[key] = zlib.crc32(key.encode("utf-8"))
            assigned = [h % n_parts] * n
        else:
            rr = self._keyless_rr[topic]
            self._keyless_rr[topic] = rr + n
            assigned = [(rr + i) % n_parts for i in range(n)]

        next_offsets = [part.next_offset for part in parts]
        batches: list[list[Record]] = [[] for _ in range(n_parts)]
        batch_bytes = [0] * n_parts
        out: list[Record] = []
        for i, value in enumerate(values):
            p = assigned[i]
            record = Record(
                topic=topic,
                partition=p,
                offset=next_offsets[p],
                timestamp=timestamp if timestamps is None else timestamps[i],
                key=key if keys is None else keys[i],
                value=value,
                nbytes=sizes[i],
            )
            next_offsets[p] += 1
            batches[p].append(record)
            batch_bytes[p] += sizes[i]
            out.append(record)
        for p, batch in enumerate(batches):
            if batch:
                parts[p].append_many(batch, batch_bytes[p])
        return out

    def fetch(
        self,
        topic: str,
        partition: int,
        from_offset: int,
        max_records: int | None = 1000,
    ) -> list[Record]:
        """Read up to ``max_records`` from ``from_offset`` (may be trimmed).

        ``max_records=None`` reads to the high watermark; a whole-log
        read returns the partition's internal list without copying (treat
        it as read-only — see :meth:`_Partition.read`).
        """
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
