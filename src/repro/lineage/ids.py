"""Deterministic lineage-node identifiers.

A lineage node's identity is a pure function of the artifact's *logical*
coordinates — dataset names, part keys, window boundaries, store
generations — hashed with BLAKE2b exactly like
:func:`repro.obs.ids.trace_id` mints trace IDs.  No wall clock, no
global RNG, no insertion counters that depend on thread interleaving:
two runs of the same seed (any shard count) mint the same node IDs in
whatever order they get there, which is what lets the catalog export
byte-identically.

Coordinate formatting matters: floats go through ``repr`` (shortest
round-trip form, stable across platforms for the doubles the simulated
clock produces) and every coordinate is separated by an un-escapable
``\\x1f`` so ``("a", "b:c")`` and ``("a:b", "c")`` cannot collide.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "node_id",
    "topic_window_id",
    "batch_id",
    "part_id",
    "rollup_partial_id",
    "query_result_id",
    "envelope_id",
]

#: Hex digits in a node ID (64-bit, matching repro.obs.ids width).
_ID_BYTES = 8

_SEP = "\x1f"


def _coord(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def node_id(kind: str, *coords) -> str:
    """The ID of the node whose logical coordinates are ``coords``."""
    payload = _SEP.join(("lineage", kind, *(_coord(c) for c in coords)))
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=_ID_BYTES
    ).hexdigest()


def topic_window_id(topic: str, key: str, t0: float) -> str:
    """One producer send: ``(topic, record key, window start)``."""
    return node_id("topic_window", topic, key, t0)


def batch_id(dataset: str, now: float) -> str:
    """One refined batch landing in a dataset at logical time ``now``.

    The tier store derives part nodes from this ID without ever talking
    to the framework: both sides compute it from ``(dataset, now)``,
    which is exactly the coordinate pair :meth:`TieredStore.ingest`
    receives — so the edge needs no shared mutable hand-off.
    """
    return node_id("batch", dataset, now)


def part_id(bucket: str, key: str) -> str:
    """One OCEAN part object.  Part keys are deterministic (the part
    counter is allocated under the registry lock in ingest order), so
    the node ID is too."""
    return node_id("part", bucket, key)


def rollup_partial_id(rollup: str, part_key: str) -> str:
    """One rollup partial aggregate (keyed by rollup and source part)."""
    return node_id("rollup_partial", rollup, part_key)


def query_result_id(op: str, name: str, version: int, params: str) -> str:
    """One query answer: ``(archive|rollup, dataset, generation, params)``.

    Including the store generation makes repeats idempotent rather than
    sequential: the same question at the same generation *is* the same
    answer, so identical queries (repeated, or asked from two caller
    threads) merge into one node instead of racing over a sequence
    counter.
    """
    return node_id("query_result", op, name, version, params)


def envelope_id(tenant: str, endpoint: str, fingerprint: str, seq: int) -> str:
    """One freshly computed serve envelope.  ``seq`` counts prior
    submissions with the same coordinates and is assigned on the
    gateway's arrival loop (serial, submission order) — never on the
    worker pool."""
    return node_id("envelope", tenant, endpoint, fingerprint, seq)
