"""Producer client for the broker.

A thin convenience wrapper that stamps timestamps and estimates payload
sizes for volume accounting; per-topic produce volumes land in
``stream.produced_records{topic}`` / ``stream.produced_bytes{topic}`` —
the numbers behind the Fig. 4a ingest-rate bench.
"""

from __future__ import annotations

from typing import Any

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


class Producer:
    """Appends records to broker topics with automatic size accounting."""

    def __init__(self, broker: Broker, client_id: str = "producer") -> None:
        self.broker = broker
        self.client_id = client_id

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
            record = self.broker.produce(
                topic, value, key=key, timestamp=timestamp, nbytes=size
            )
        METRICS.inc("stream.produced_records", topic=topic)
        METRICS.inc("stream.produced_bytes", size, topic=topic)
        return record
