"""Micro-batch streaming driver.

A :class:`StreamingQuery` repeatedly drains a broker topic, applies a
transform (records -> table), filters late rows through a watermark, and
hands the result to a sink together with a monotonically increasing
``batch_id``.  Progress (offsets + watermark) is checkpointed *after* a
successful sink call; a crash between sink and checkpoint therefore
replays the batch with the *same* batch id, and an idempotent sink turns
at-least-once delivery into effectively-once output — the Spark
structured-streaming recovery contract (§V-B).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.columnar.table import ColumnTable
from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.obs import METRICS
from repro.pipeline.checkpoint import CheckpointStore
from repro.pipeline.watermark import Watermark
from repro.stream.broker import Broker, Record

__all__ = ["BatchResult", "StreamingQuery"]

Transform = Callable[[list[Record]], ColumnTable]
Sink = Callable[[int, ColumnTable], None]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one ``run_once`` call."""

    batch_id: int
    records_in: int
    rows_out: int
    rows_late: int
    wall_s: float

    @property
    def empty(self) -> bool:
        """True if the trigger fired with no new input."""
        return self.records_in == 0


class StreamingQuery:
    """One continuously running pipeline stage.

    Parameters
    ----------
    query_id:
        Stable identifier; checkpoints are keyed by it.
    broker, topic:
        Source log.
    transform:
        ``records -> ColumnTable``; called once per micro-batch (may
        return an empty table).
    sink:
        ``(batch_id, table) -> None``; must be idempotent per batch_id
        for effectively-once output.
    checkpoint:
        Progress store; pass the same store across restarts to resume.
    watermark:
        Optional late-data filter applied to the transform output.
    time_column:
        Event-time column used by the watermark.
    max_records_per_batch:
        Input bound per trigger (backpressure).
    retry_policy:
        Backoff policy for transient fetch faults (defaults to
        :data:`repro.faults.retry.DEFAULT_RETRY_POLICY`).
    """

    def __init__(
        self,
        query_id: str,
        broker: Broker,
        topic: str,
        transform: Transform,
        sink: Sink,
        checkpoint: CheckpointStore,
        watermark: Watermark | None = None,
        time_column: str = "timestamp",
        max_records_per_batch: int = 10_000,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if max_records_per_batch <= 0:
            raise ValueError("max_records_per_batch must be positive")
        self.query_id = query_id
        self.broker = broker
        self.topic = topic
        self.transform = transform
        self.sink = sink
        self.checkpoint = checkpoint
        self.watermark = watermark
        self.time_column = time_column
        self.max_records_per_batch = max_records_per_batch
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY

        n_parts = broker.topic_config(topic).n_partitions
        saved = checkpoint.offsets(query_id)
        self._positions: dict[int, int] = {
            p: saved.get(p, 0) for p in range(n_parts)
        }
        last = checkpoint.last_batch_id(query_id)
        self._next_batch_id = 0 if last is None else last + 1
        state = checkpoint.state(query_id)
        if self.watermark is not None and "max_event_time" in state:
            self.watermark.max_event_time = state["max_event_time"]
        self.history: list[BatchResult] = []
        #: Records this query jumped over because retention trimmed them
        #: before they were read.
        self.skipped_by_retention = 0

    # -- driver ----------------------------------------------------------------

    def _fetch(self) -> tuple[list[Record], dict[int, int], dict[int, int]]:
        """Records for one batch, the positions they advance, and the
        records each partition jumps over because retention trimmed
        them before they were read.

        Positions are keyed by the partition fetched, not by
        ``Record.partition``: a sharded broker's records carry their
        shard-local index.  A trimmed gap moves the position past it
        even when nothing follows the gap yet: the records are gone and
        waiting cannot bring them back.
        """
        records: list[Record] = []
        ends: dict[int, int] = {}
        skipped: dict[int, int] = {}
        budget = self.max_records_per_batch
        for p in sorted(self._positions):
            if budget <= 0:
                break
            pos = self._positions[p]
            earliest = self.broker.earliest_offset(self.topic, p)
            if earliest > pos:
                skipped[p] = earliest - pos
                pos = ends[p] = earliest
            got = call_with_retry(
                lambda: self.broker.fetch(self.topic, p, pos, budget),
                policy=self.retry_policy,
                site="query.fetch",
            )
            if got:
                records.extend(got)
                ends[p] = got[-1].offset + 1
                budget -= len(got)
        return records, ends, skipped

    def run_once(self) -> BatchResult:
        """Process one micro-batch (possibly empty) and checkpoint it.

        Records skipped over a retention-trimmed gap are counted on
        :attr:`skipped_by_retention` and the process-wide
        ``stream.skipped_by_retention{topic,shard}`` counter once the
        batch commits, so a replayed batch does not count them twice.
        """
        t0 = time.perf_counter()
        records, ends, skipped = self._fetch()
        table = self.transform(records)
        rows_late = 0
        if self.watermark is not None and table.num_rows:
            table, late = self.watermark.split(table, self.time_column)
            rows_late = late.num_rows

        batch_id = self._next_batch_id
        self.sink(batch_id, table)

        # Only after the sink succeeds do we advance durable progress.
        new_positions = {**self._positions, **ends}
        state: dict[str, Any] = {}
        if self.watermark is not None:
            state["max_event_time"] = self.watermark.max_event_time
        self.checkpoint.commit(self.query_id, batch_id, new_positions, state)
        self._positions = new_positions
        self._next_batch_id = batch_id + 1
        for p, n in skipped.items():
            self.skipped_by_retention += n
            METRICS.inc(
                "stream.skipped_by_retention",
                n,
                topic=self.topic,
                shard=self.broker.shard_of(p, self.topic),
            )

        result = BatchResult(
            batch_id=batch_id,
            records_in=len(records),
            rows_out=table.num_rows,
            rows_late=rows_late,
            wall_s=time.perf_counter() - t0,
        )
        self.history.append(result)
        return result

    def run_until_caught_up(self, max_batches: int = 1000) -> list[BatchResult]:
        """Trigger repeatedly until the topic is drained."""
        results = []
        for _ in range(max_batches):
            result = self.run_once()
            results.append(result)
            if self.lag() == 0:
                break
        return results

    def lag(self) -> int:
        """Records available but not yet processed."""
        return sum(
            max(
                0,
                self.broker.latest_offset(self.topic, p) - pos,
            )
            for p, pos in self._positions.items()
        )
