"""Consumer client: one reader per (topic, group).

A consumer reads every partition of its topic in partition order and
commits progress back to the broker under its group id.  Consumers that
share a group id share committed offsets, not partitions: there is no
member split, so a new consumer with the same group id resumes exactly
where the group left off — the at-least-once replay behaviour the
pipeline's recovery path (:mod:`repro.pipeline.checkpoint`) builds on.
"""

from __future__ import annotations

from repro.faults.retry import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retry
from repro.obs import METRICS, TRACER
from repro.stream.broker import Broker, Record, UnknownPartitionError

__all__ = ["Consumer"]


class Consumer:
    """A consumer over every partition of one topic.

    Parameters
    ----------
    broker, topic, group:
        Where to read and which group's committed offsets to share.
    retry_policy:
        Backoff policy for transient fetch faults (defaults to
        :data:`repro.faults.retry.DEFAULT_RETRY_POLICY`).
    """

    def __init__(
        self,
        broker: Broker,
        topic: str,
        group: str,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self.broker = broker
        self.topic = topic
        self.group = group
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        n_parts = broker.topic_config(topic).n_partitions
        # Local read positions start from the group's committed offsets.
        self._positions = {
            p: broker.committed(group, topic, p) for p in range(n_parts)
        }
        # Partitions whose position this consumer has actually moved
        # (poll/seek).  commit() only writes these back: committing on a
        # fresh consumer must be a no-op, not a reset of the group's
        # offsets to whatever was committed at construction time.
        self._touched: set[int] = set()
        #: Records this consumer jumped over because retention trimmed
        #: them before they were read (also counted process-wide under
        #: ``stream.skipped_by_retention{topic,shard}`` in the metrics
        #: registry).
        self.skipped_by_retention = 0

    def seek(self, partition: int, offset: int) -> None:
        """Move the local read position (does not commit)."""
        if partition not in self._positions:
            n_parts = len(self._positions)
            raise UnknownPartitionError(self.topic, partition, n_parts)
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self._positions[partition] = offset
        self._touched.add(partition)

    def seek_to_beginning(self) -> None:
        """Rewind every partition to its earliest retained offset."""
        for p in self._positions:
            self._positions[p] = self.broker.earliest_offset(self.topic, p)
            self._touched.add(p)

    def poll(self, max_records: int | None = 1000) -> list[Record]:
        """Fetch up to ``max_records`` across all partitions, advancing
        local positions.  ``None`` means no cap.  Skips over
        retention-trimmed gaps.  :meth:`poll_slices` flattened."""
        out: list[Record] = []
        for _, records in self.poll_slices(max_records):
            out.extend(records)
        return out

    def poll_slices(
        self, max_records: int | None = None
    ) -> list[tuple[int, list[Record]]]:
        """Fetch as ``(partition, records)`` pairs without flattening.

        Each list is a snapshot: later produces and retention trims
        leave it as it was.  Local positions advance exactly as
        :meth:`poll`.

        Skipping over a retention-trimmed gap is documented behaviour
        (the records are gone; waiting cannot bring them back) but never
        silent: the skipped count accumulates on
        :attr:`skipped_by_retention` and the process-wide
        ``stream.skipped_by_retention{topic,shard}`` counter.  A
        partition where nothing moved — no records, no gap — is not
        marked touched, so a subsequent :meth:`commit` cannot rewrite the
        group's offset for it from a stale construction-time snapshot.
        """
        out: list[tuple[int, list[Record]]] = []
        budget = max_records
        n_fetched = 0
        with TRACER.span("stream.fetch", topic=self.topic) as span:
            with METRICS.timer("stream.fetch"):
                for p in self._positions:
                    if budget is not None and budget <= 0:
                        break
                    pos = self._positions[p]
                    earliest = self.broker.earliest_offset(self.topic, p)
                    if earliest > pos:
                        skipped = earliest - pos
                        self.skipped_by_retention += skipped
                        METRICS.inc(
                            "stream.skipped_by_retention",
                            skipped,
                            topic=self.topic,
                            shard=self.broker.shard_of(p, self.topic),
                        )
                        pos = earliest
                    records = call_with_retry(
                        lambda: self.broker.fetch(self.topic, p, pos, budget),
                        policy=self.retry_policy,
                        site="consumer.fetch",
                    )
                    if records:
                        self._positions[p] = records[-1].offset + 1
                        self._touched.add(p)
                        out.append((p, records))
                        n_fetched += len(records)
                        if budget is not None:
                            budget -= len(records)
                    elif pos != self._positions[p]:
                        # Moved past a trimmed gap with nothing beyond it
                        # yet: real (accounted) progress, worth committing.
                        self._positions[p] = pos
                        self._touched.add(p)
            if span is not None:
                span.set(records=n_fetched)
        if n_fetched:
            METRICS.inc("stream.fetched_records", n_fetched, topic=self.topic)
        return out

    def commit(self) -> None:
        """Commit local positions for partitions this consumer has read or
        seeked.  A commit with no prior poll/seek is a no-op."""
        for p in self._touched:
            self.broker.commit(self.group, self.topic, p, self._positions[p])

    def position(self, partition: int) -> int:
        """Local (uncommitted) read position for a partition."""
        return self._positions[partition]

    def lag(self) -> int:
        """Records remaining ahead of local positions."""
        return sum(
            max(0, self.broker.latest_offset(self.topic, p) - pos)
            for p, pos in self._positions.items()
        )
