"""Producer client for the broker.

A thin convenience wrapper that stamps timestamps, estimates payload sizes
for volume accounting, and keeps per-topic produce statistics — the
numbers behind the Fig. 4a ingest-rate bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.obs import METRICS, TRACER
from repro.stream.broker import Broker, Record

__all__ = ["Producer"]


def _estimate_nbytes(value: Any) -> int:
    """Best-effort payload size, computed once per send.

    Priority: ``nbytes_raw`` (telemetry batches), ``nbytes`` (numpy
    arrays, columnar tables), byte/str length, flat 64-byte fallback.
    The estimate is stamped onto the produced :class:`Record`, so all
    downstream accounting (``topic_bytes``, retention, volume stats)
    reads the cached number instead of re-walking the value.
    """
    raw = getattr(value, "nbytes_raw", None)
    if raw is not None:
        return int(raw)
    raw = getattr(value, "nbytes", None)
    if raw is not None:
        return int(raw)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    return 64


@dataclass
class _TopicStats:
    records: int = 0
    nbytes: int = 0


class Producer:
    """Appends records to broker topics with automatic size accounting."""

    def __init__(self, broker: Broker, client_id: str = "producer") -> None:
        self.broker = broker
        self.client_id = client_id
        self._stats: dict[str, _TopicStats] = {}

    def send(
        self,
        topic: str,
        value: Any,
        *,
        key: str | None = None,
        timestamp: float = 0.0,
        nbytes: int | None = None,
    ) -> Record:
        """Produce one record; ``nbytes`` defaults to an estimate."""
        size = _estimate_nbytes(value) if nbytes is None else nbytes
        with TRACER.span("stream.produce", topic=topic, nbytes=size):
            with METRICS.timer("stream.produce"):
                record = self.broker.produce(
                    topic, value, key=key, timestamp=timestamp, nbytes=size
                )
        stats = self._stats.setdefault(topic, _TopicStats())
        stats.records += 1
        stats.nbytes += size
        METRICS.inc("stream.produced_records", topic=topic)
        METRICS.inc("stream.produced_bytes", size, topic=topic)
        return record

    def send_many(
        self,
        topic: str,
        values: Sequence[Any],
        *,
        keys: Sequence[str | None] | None = None,
        key: str | None = None,
        timestamps: Sequence[float] | None = None,
        timestamp: float = 0.0,
        nbytes: Sequence[int] | None = None,
    ) -> list[Record]:
        """Produce a batch in one broker call (same semantics as a loop
        of :meth:`send`, including per-value size estimation)."""
        if not values:
            return []
        sizes = (
            [_estimate_nbytes(v) for v in values] if nbytes is None else nbytes
        )
        with TRACER.span("stream.produce", topic=topic, batch=len(values)):
            with METRICS.timer("stream.produce"):
                records = self.broker.produce_many(
                    topic,
                    values,
                    keys=keys,
                    key=key,
                    timestamps=timestamps,
                    timestamp=timestamp,
                    nbytes=sizes,
                )
        total = sum(sizes)
        stats = self._stats.setdefault(topic, _TopicStats())
        stats.records += len(records)
        stats.nbytes += total
        METRICS.inc("stream.produced_records", len(records), topic=topic)
        METRICS.inc("stream.produced_bytes", total, topic=topic)
        METRICS.observe("stream.batch_size", len(records), topic=topic)
        return records

    def records_sent(self, topic: str) -> int:
        """Records this producer has sent to ``topic``."""
        return self._stats.get(topic, _TopicStats()).records

    def bytes_sent(self, topic: str) -> int:
        """Payload bytes this producer has sent to ``topic``."""
        return self._stats.get(topic, _TopicStats()).nbytes
