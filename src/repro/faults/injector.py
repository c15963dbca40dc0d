"""The fault injector and the wrappers that put it in the data path.

:class:`FaultInjector` counts invocations per site and consults a
:class:`~repro.faults.plan.FaultPlan`; the wrapper classes
(:class:`FaultyBroker`, :class:`TornCheckpointStore`,
:class:`FaultyObjectStore`) sit in front of the real components and call
:meth:`FaultInjector.fire` at each fault site before delegating.  The
wrappers are pure delegation otherwise — with an empty plan they are
behaviourally identical to the wrapped object (tested), so chaos runs
exercise exactly the production code paths.

Wrappers duck-type rather than subclass: everything not intercepted is
forwarded via ``__getattr__``, keeping them oblivious to API growth in
the wrapped classes.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any

from repro.faults.errors import SimulatedCrash, TransientTierError
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.obs import METRICS
from repro.stream.errors import FetchTimeoutError, ProduceUnavailableError

if TYPE_CHECKING:  # import for type hints only; wrappers duck-type
    from repro.pipeline.checkpoint import CheckpointStore
    from repro.stream.broker import Broker, Record
    from repro.storage.object_store import ObjectMeta, ObjectStore

__all__ = [
    "FaultInjector",
    "FaultyBroker",
    "TornCheckpointStore",
    "FaultyObjectStore",
]


class FaultInjector:
    """Counts per-site invocations and raises scheduled faults.

    The injector is the single source of truth for "where are we in the
    plan": every wrapper shares one injector so a site's invocation
    index is global to the run.  ``injected`` logs every fired fault as
    ``(site, call_index, kind)`` — two runs of the same plan over the
    same input produce identical logs (replayability).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._calls: dict[str, int] = {}
        self.injected: list[tuple[str, int, FaultKind]] = []
        #: ``(site, call_index, object key)`` for every ``CORRUPT_PART``
        #: effect applied — the input ``repro.lineage.blast.blast_radius``
        #: maps to downstream artifacts.
        self.corrupted: list[tuple[str, int, str]] = []
        self.virtual_delay_s = 0.0

    def calls(self, site: str) -> int:
        """Invocations of ``site`` seen so far."""
        return self._calls.get(site, 0)

    def on_call(self, site: str) -> tuple[int, FaultSpec | None]:
        """Advance ``site``'s invocation counter; return (index, spec)."""
        n = self._calls.get(site, 0) + 1
        self._calls[site] = n
        spec = self.plan.lookup(site, n)
        if spec is not None:
            self.injected.append((site, n, spec.kind))
            METRICS.inc(f"faults.injected.{spec.kind.value}")
        return n, spec

    def fire(self, site: str) -> FaultSpec | None:
        """Consult the plan at ``site``; raise error-kind faults, apply
        slow-read delay, and return effect-kind specs for the caller."""
        call, spec = self.on_call(site)
        if spec is None:
            return None
        kind = spec.kind
        if kind is FaultKind.FETCH_ERROR:
            raise FetchTimeoutError(site, f"injected at call {call}")
        if kind is FaultKind.PRODUCE_ERROR:
            raise ProduceUnavailableError(site, f"injected at call {call}")
        if kind is FaultKind.TIER_ERROR:
            raise TransientTierError(site, f"injected at call {call}")
        if kind is FaultKind.CRASH:
            raise SimulatedCrash(site, call)
        if kind is FaultKind.SLOW_READ:
            self.virtual_delay_s += spec.arg
            METRICS.inc("faults.slow_read_virtual_s", spec.arg)
        return spec


class FaultyBroker:
    """A :class:`~repro.stream.broker.Broker` front that injects
    transport faults at the fetch/produce sites.

    ``site_prefix`` namespaces the fault sites, so a sharded broker's
    individual shards can be wrapped independently (e.g. wrapping
    ``sharded.shards[1]`` with ``site_prefix="broker.shard1"`` arms the
    sites ``broker.shard1.fetch`` / ``broker.shard1.produce`` — a
    shard-local outage the other shards never see).
    """

    SITE_FETCH = "broker.fetch"
    SITE_PRODUCE = "broker.produce"

    def __init__(
        self,
        inner: "Broker",
        injector: FaultInjector,
        site_prefix: str = "broker",
    ) -> None:
        self.inner = inner
        self.injector = injector
        self.site_fetch = f"{site_prefix}.fetch"
        self.site_produce = f"{site_prefix}.produce"

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def fetch(
        self,
        topic: str,
        partition: int,
        from_offset: int,
        max_records: int | None = 1000,
    ) -> list["Record"]:
        spec = self.injector.fire(self.site_fetch)
        if spec is not None and spec.kind is FaultKind.RETENTION_RACE:
            # Retention runs "concurrently", trimming the head the
            # consumer was about to read.
            self.inner.enforce_retention(spec.arg)
        return self.inner.fetch(topic, partition, from_offset, max_records)

    def produce(self, topic: str, value: Any, **kwargs: Any) -> "Record":
        self.injector.fire(self.site_produce)
        return self.inner.produce(topic, value, **kwargs)


class TornCheckpointStore:
    """A :class:`~repro.pipeline.checkpoint.CheckpointStore` front that
    can die mid-commit.

    ``CRASH`` kills the process *before* any write reaches disk (the
    crash-between-sink-and-checkpoint window).  ``TORN_CHECKPOINT``
    models a crash mid-``os.replace`` era: the would-be checkpoint
    payload is written **truncated, in place, without the
    temp-file/rename dance** — exactly the corrupt file a restarted
    store must quarantine — and then the process dies.
    """

    SITE_COMMIT = "checkpoint.commit"

    def __init__(self, inner: "CheckpointStore", injector: FaultInjector) -> None:
        if inner.path is None:
            raise ValueError(
                "TornCheckpointStore needs a disk-backed CheckpointStore; "
                "in-memory state has no file to tear"
            )
        self.inner = inner
        self.injector = injector

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def commit(
        self,
        query_id: str,
        batch_id: int,
        offsets: dict[int, int],
        state: dict[str, Any] | None = None,
    ) -> None:
        call, spec = self.injector.on_call(self.SITE_COMMIT)
        if spec is not None:
            if spec.kind is FaultKind.CRASH:
                raise SimulatedCrash(self.SITE_COMMIT, call)
            if spec.kind is FaultKind.TORN_CHECKPOINT:
                self._tear(query_id, batch_id, offsets, state)
                raise SimulatedCrash(self.SITE_COMMIT, call)
        self.inner.commit(query_id, batch_id, offsets, state)

    def _tear(
        self,
        query_id: str,
        batch_id: int,
        offsets: dict[int, int],
        state: dict[str, Any] | None,
    ) -> None:
        payload: dict[str, Any] = {
            q: {
                "batch_id": self.inner.last_batch_id(q),
                "offsets": {str(k): v for k, v in self.inner.offsets(q).items()},
                "state": self.inner.state(q),
            }
            for q in self.inner.queries()
        }
        payload[query_id] = {
            "batch_id": batch_id,
            "offsets": {str(k): int(v) for k, v in offsets.items()},
            "state": state or {},
        }
        blob = json.dumps(payload)
        torn = blob[: max(1, len(blob) // 2)]
        target = os.path.join(self.inner.path, "checkpoints.json")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(torn)


class FaultyObjectStore:
    """An :class:`~repro.storage.object_store.ObjectStore` front that
    injects faults at the put and delete sites.

    Both sites fire *before* delegating, so a ``CRASH`` models a process
    death in which the operation never reached the store — the windows
    the tier rewrite protocol (DESIGN.md §15) must survive: a crash at
    ``tier.put`` loses an uncommitted rewrite, a crash at
    ``tier.delete`` strands a superseded part for the recovery sweep.
    """

    SITE_PUT = "tier.put"
    SITE_DELETE = "tier.delete"

    def __init__(self, inner: "ObjectStore", injector: FaultInjector) -> None:
        self.inner = inner
        self.injector = injector

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)

    def put(self, bucket: str, key: str, data: bytes, **kwargs: Any) -> "ObjectMeta":
        spec = self.injector.fire(self.SITE_PUT)
        if spec is not None and spec.kind is FaultKind.CORRUPT_PART:
            # Silent corruption: the put succeeds, the bytes are wrong.
            # The caller's manifest/digest metadata describe the clean
            # table, exactly the mismatch real bit-rot produces.
            data = _corrupt_blob(data)
            self.injector.corrupted.append(
                (self.SITE_PUT, self.injector.calls(self.SITE_PUT), key)
            )
            METRICS.inc("faults.parts_corrupted")
        return self.inner.put(bucket, key, data, **kwargs)

    def delete(self, bucket: str, key: str) -> None:
        self.injector.fire(self.SITE_DELETE)
        self.inner.delete(bucket, key)


def _corrupt_blob(data: bytes) -> bytes:
    """Deterministically perturb an RCF blob's float columns.

    The blob stays decodable (queries keep running and return wrong
    numbers — the dangerous failure mode) and the perturbation is a
    pure function of the input, so a corrupted run replays byte-for-
    byte.  The time column is left alone: windowing and span accounting
    must keep working for the corruption to flow downstream silently.
    """
    import numpy as np

    from repro.columnar.file_format import read_table, write_table
    from repro.columnar.table import ColumnTable

    table = read_table(data)
    if table.num_rows == 0:
        return data
    columns = {}
    for name in table.column_names:
        arr = np.asarray(table[name])
        if name != "timestamp" and np.issubdtype(arr.dtype, np.floating):
            arr = arr + 1.0e6
        columns[name] = arr
    return write_table(ColumnTable(columns))
