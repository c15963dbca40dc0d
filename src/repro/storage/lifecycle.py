"""LifecycleManager: the store's continuous data-management loop.

The paper's §V lesson is that an exascale ODA store survives by
*continuous* management, not post-hoc cleanup: small-object sprawl is
compacted away, data demotes LAKE -> OCEAN -> GLACIER on policy, and raw
Bronze freezes early.  :class:`LifecycleManager` packages those three
motions into one deterministic :meth:`tick` driven entirely by the
caller's clock (``now`` is simulated time — the framework passes window
boundaries), so a lifecycle-managed run replays byte-for-byte.

Each tick is three phases, in recovery-safe order:

1. **sweep** — :meth:`TieredStore.sweep_superseded` collects parts left
   tombstoned by a rewrite that crashed before its deletes finished;
2. **retention** — :meth:`TieredStore.enforce` demotes and freezes per
   :class:`~repro.storage.tiers.TierPolicy`;
3. **compaction** — every dataset with at least
   ``TierPolicy.compact_min_parts`` live parts has a size-tiered
   *suffix* of them (:func:`repro.storage.compaction.merge_suffix`: the
   newest parts, reaching back over an older part only once the merge
   would at least double it) rewritten into one time-clustered part
   under the crash-safe ``replaces`` protocol.  The tick a dataset
   compacts on does not depend on how much is rewritten, so all
   datasets keep compacting together and the work per tick is
   amortized: rows are rewritten O(log N) times over a run, not on
   every compaction.

A :class:`~repro.faults.errors.SimulatedCrash` can fire at any put or
delete inside a tick; :meth:`run_with_restarts` is the chaos-test
harness that keeps restarting the tick until it completes, modelling a
maintenance daemon under a crash loop.  DESIGN.md §15 documents the
protocol and why any interleaving of crashes converges to the
fault-free store.
"""

from __future__ import annotations

from repro.faults.errors import SimulatedCrash
from repro.storage.tiers import TieredStore

__all__ = ["LifecycleManager"]


class LifecycleManager:
    """Drives sweep, retention, and compaction over a :class:`TieredStore`.

    Parameters
    ----------
    tiers:
        The store under management.  The manager holds no state of its
        own beyond counters — every decision re-derives from the store,
        which is what makes a crashed tick restartable.
    """

    def __init__(self, tiers: TieredStore) -> None:
        self.tiers = tiers
        self.ticks = 0
        self.last_report: dict[str, int] | None = None

    def tick(self, now: float) -> dict[str, int]:
        """One maintenance pass at simulated time ``now``.

        Returns the merged report: the sweep count (``swept``), every
        :meth:`TieredStore.enforce` counter, and compaction totals
        (``compactions``, ``compacted_parts``, ``compacted_bytes_saved``,
        ``compacted_bytes_rewritten`` — the bytes the merges put, the
        tick's write cost).
        """
        from repro.obs import TRACER

        with TRACER.span("lifecycle.tick", now=now, tick=self.ticks):
            return self._tick_impl(now)

    def _tick_impl(self, now: float) -> dict[str, int]:
        from repro.obs import METRICS, TRACER

        report: dict[str, int] = {
            "swept": 0,
            "compactions": 0,
            "compacted_parts": 0,
            "compacted_bytes_saved": 0,
            "compacted_bytes_rewritten": 0,
        }
        with TRACER.span("lifecycle.sweep"):
            report["swept"] = self.tiers.sweep_superseded()
        with TRACER.span("lifecycle.retention"):
            report.update(self.tiers.enforce(now))
        with TRACER.span("lifecycle.compact"):
            for name, data_class in sorted(self.tiers.datasets().items()):
                policy = self.tiers.policies[data_class]
                result = self.tiers.compact(
                    name, min_objects=policy.compact_min_parts
                )
                if result["merged"]:
                    report["compactions"] += 1
                    report["compacted_parts"] += result["merged"]
                    report["compacted_bytes_saved"] += (
                        result["bytes_before"] - result["bytes_after"]
                    )
                    report["compacted_bytes_rewritten"] += result["bytes_after"]
        METRICS.inc("lifecycle.ticks")
        self.ticks += 1
        self.last_report = report
        return report

    def run_with_restarts(
        self, now: float, max_restarts: int = 50
    ) -> tuple[dict[str, int], int]:
        """Chaos harness: retry :meth:`tick` through simulated crashes.

        Models the maintenance daemon being supervised back up after
        each :class:`SimulatedCrash`.  Every restart re-enters
        :meth:`tick` from the top, so the recovery sweep runs before any
        new rewrite — the property the crash-mid-compaction chaos tests
        hold to a fault-free oracle.  Returns ``(report, restarts)`` of
        the first tick that completes.
        """
        from repro.obs import METRICS

        restarts = 0
        while True:
            try:
                return self.tick(now), restarts
            except SimulatedCrash:
                restarts += 1
                METRICS.inc("lifecycle.crash_restarts")
                if restarts > max_restarts:
                    raise
