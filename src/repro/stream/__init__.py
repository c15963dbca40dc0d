"""STREAM tier: a Kafka-style partitioned log broker.

The paper's hourglass architecture puts Apache Kafka at the waist: "FIFO
buffers for in-flight data in distributed multi-project pipelines" (§V-B).
This package reimplements the broker semantics the framework relies on:

* append-only partitioned topics with dense per-partition offsets,
* key-hash partitioning (all of one node's telemetry stays ordered),
* one consumer per (topic, group), reading every partition, with
  committed offsets, lag, and replay-from-offset,
* time- and size-based retention (the STREAM tier's short horizon in
  Fig. 5).

Payloads are arbitrary Python objects (typically columnar telemetry
batches); the broker tracks their serialized size for volume accounting
but never copies them.
"""

from repro.stream.broker import (
    Broker,
    Record,
    TopicConfig,
    UnknownPartitionError,
    UnknownTopicError,
)
from repro.stream.consumer import Consumer
from repro.stream.errors import (
    FetchTimeoutError,
    ProduceUnavailableError,
    TransientStreamError,
)
from repro.stream.producer import Producer
from repro.stream.retention import RetentionPolicy
from repro.stream.sharding import ShardedBroker

__all__ = [
    "Broker",
    "ShardedBroker",
    "Record",
    "TopicConfig",
    "Producer",
    "Consumer",
    "RetentionPolicy",
    "UnknownTopicError",
    "UnknownPartitionError",
    "TransientStreamError",
    "FetchTimeoutError",
    "ProduceUnavailableError",
]
