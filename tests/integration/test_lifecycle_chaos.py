"""Crash-mid-compaction chaos: every injection point recovers exactly.

The lifecycle rewrite protocol claims that a :class:`SimulatedCrash` at
*any* put or delete inside a tick leaves a store that — after the
supervised restarts of :meth:`LifecycleManager.run_with_restarts` —
serves ``query_archive`` results byte-identical to a fault-free oracle:
no duplicated rows while superseded parts linger, none lost once they
are swept.  These tests enumerate every injection point of a compaction
tick, then fuzz multi-crash schedules from seeded plans.

Compaction rewrites a size-tiered *suffix* of the live parts, so a long
run holds several compacted generations at once and a crash can strand
tombstone chains more than one rewrite deep.  :class:`TestMultiGeneration`
runs long enough to hold three generations, enumerates a crash at every
put and delete of that run, and crashes the recovery sweep itself at
every delete of a three-deep chain.
"""

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.columnar.file_format import write_table
from repro.faults.errors import SimulatedCrash
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.lineage import LineageCatalog
from repro.perf.baseline import baseline_mode
from repro.storage import DataClass, LifecycleManager, TieredStore, TierPolicy
from tests.storage.compaction_oracle import open_handles

N_PARTS = 6
#: The injector wraps the store only after ingest, so put call 1 is the
#: compaction commit and the GC that follows is delete calls 1..N_PARTS.
COMMIT_PUT = 1


def batch(t_start, n=40):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": rng.integers(0, 8, n),
            "value": rng.normal(100.0, 10.0, n),
        }
    )


def build_store(plan=None, policy=None):
    policies = {DataClass.SILVER: policy} if policy else None
    ts = TieredStore(policies=policies)
    ts.register("d", DataClass.SILVER)
    for i in range(N_PARTS):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    if plan is not None:
        ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(plan))
    return ts


def archive_bytes(ts):
    """The canonical byte encoding of the full archive query.

    Every state these suites stop in also holds the store's read handles
    to their contract: the fast path (which scans through them) answers
    what the handle-free ``baseline_mode`` oracle answers — so a part
    that is superseded but still present is never served from a stale
    handle — and no handle outlives its key.
    """
    fast = write_table(ts.scan_ocean("d"))
    with baseline_mode():
        assert write_table(ts.scan_ocean("d")) == fast
    present = {m.key for m in ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")}
    assert set(open_handles(ts)) <= present
    return fast


def oracle_state(policy=None, now=float(N_PARTS)):
    ts = build_store(policy=policy)
    LifecycleManager(ts).tick(now=now)
    return archive_bytes(ts), len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/"))


CRASH_POINTS = [("tier.put", COMMIT_PUT)] + [
    ("tier.delete", i) for i in range(1, N_PARTS + 1)
]


class TestEveryInjectionPoint:
    @pytest.mark.parametrize("site,at_call", CRASH_POINTS)
    def test_single_crash_recovers_to_oracle(self, site, at_call):
        want_bytes, want_parts = oracle_state()
        ts = build_store(
            FaultPlan([FaultSpec(site, FaultKind.CRASH, at_call=at_call)])
        )
        report, restarts = LifecycleManager(ts).run_with_restarts(
            now=float(N_PARTS)
        )
        assert restarts == 1
        assert archive_bytes(ts) == want_bytes
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == want_parts

    def test_consistent_even_before_recovery_sweep(self):
        # Between the crash and the restart the store is already
        # duplicate-free: the committed part's ``replaces`` record hides
        # the not-yet-deleted inputs from every reader.
        ts = build_store(
            FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)])
        )
        before = archive_bytes(ts)
        from repro.faults.errors import SimulatedCrash

        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        assert archive_bytes(ts) == before


class TestCrashSchedules:
    def test_compound_crash_schedule(self):
        want_bytes, want_parts = oracle_state()
        ts = build_store(
            FaultPlan(
                [
                    FaultSpec("tier.put", FaultKind.CRASH, at_call=COMMIT_PUT),
                    FaultSpec("tier.delete", FaultKind.CRASH, at_call=2),
                    FaultSpec("tier.delete", FaultKind.CRASH, at_call=5),
                ]
            )
        )
        report, restarts = LifecycleManager(ts).run_with_restarts(
            now=float(N_PARTS)
        )
        assert restarts == 3
        assert archive_bytes(ts) == want_bytes
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == want_parts

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_seeded_crash_plans(self, seed):
        want_bytes, _ = oracle_state()
        plan = FaultPlan.seeded(
            seed,
            {"tier.put": FaultKind.CRASH, "tier.delete": FaultKind.CRASH},
            rate=0.3,
            horizon=40,
        )
        ts = build_store(plan)
        LifecycleManager(ts).run_with_restarts(now=float(N_PARTS))
        assert archive_bytes(ts) == want_bytes

    def test_crash_during_retention_split(self):
        policy = TierPolicy(
            lake_retention_s=None,
            ocean_retention_s=2.5,
            glacier=True,
            compact_min_parts=2,
        )
        want_bytes, want_parts = oracle_state(policy=policy, now=5.0)
        for at_call in range(COMMIT_PUT, COMMIT_PUT + 2):
            ts = build_store(
                FaultPlan(
                    [FaultSpec("tier.put", FaultKind.CRASH, at_call=at_call)]
                ),
                policy=policy,
            )
            LifecycleManager(ts).run_with_restarts(now=5.0)
            assert archive_bytes(ts) == want_bytes
            assert (
                len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == want_parts
            )


#: Ingest-then-tick steps of the multi-generation run.  With the default
#: ``compact_min_parts=4`` the merges land on steps 4, 7, 10, 13, 16, 19
#: and leave parts of 10, 6 and 3 ingest epochs live side by side.
MG_STEPS = 19
MG_GENERATIONS = [10, 6, 3]
#: One put per ingest plus one per merge; one delete per merged input.
MG_PUTS = MG_STEPS + 6
MG_DELETES = 4 + 3 + 5 + 3 + 4 + 3
#: A row group (8 rows) smaller than one batch: no part is *small*, so
#: the epoch rule alone shapes the generations.
MG_POLICY = TierPolicy(
    lake_retention_s=None,
    ocean_retention_s=5e8,
    glacier=True,
    row_group_size=8,
)


def mg_store(plan=None):
    ts = TieredStore(
        policies={DataClass.SILVER: MG_POLICY}, lineage=LineageCatalog()
    )
    ts.register("d", DataClass.SILVER)
    ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(plan or FaultPlan([])))
    return ts


@pytest.fixture(scope="module")
def mg_oracle():
    """Archive bytes of a store that never compacts, after 0..MG_STEPS
    ingests: what every crashed-and-recovered state must still answer."""
    ts = TieredStore(policies={DataClass.SILVER: MG_POLICY})
    ts.register("d", DataClass.SILVER)
    states = [archive_bytes(ts)]
    for i in range(MG_STEPS):
        ts.ingest("d", batch(i * 100.0), now=float(i))
        states.append(archive_bytes(ts))
    return states


def live_epochs(ts):
    return [len(p.spans) for p in ts._live_parts("d")]


def assert_lineage_matches_store(ts):
    live = sorted(p.key for p in ts._live_parts("d"))
    assert ts.lineage.live_parts("d") == live
    # A restart that lost the catalog adopts the same live set from the
    # ``replaces`` chains alone.
    recorded, ts.lineage = ts.lineage, LineageCatalog()
    try:
        ts.reconcile_lineage()
        assert ts.lineage.live_parts("d") == live
    finally:
        ts.lineage = recorded


class TestMultiGeneration:
    def test_fault_free_run_holds_three_generations(self, mg_oracle):
        ts = mg_store()
        mgr = LifecycleManager(ts)
        for i in range(MG_STEPS):
            ts.ingest("d", batch(i * 100.0), now=float(i))
            mgr.tick(now=float(i))
        assert live_epochs(ts) == MG_GENERATIONS
        injector = ts.ocean.injector
        assert injector.calls("tier.put") == MG_PUTS
        assert injector.calls("tier.delete") == MG_DELETES
        assert archive_bytes(ts) == mg_oracle[-1]

    @pytest.mark.parametrize(
        "site,at_call",
        [("tier.put", i) for i in range(1, MG_PUTS + 1)]
        + [("tier.delete", i) for i in range(1, MG_DELETES + 1)],
    )
    def test_crash_at_every_site_of_the_run(self, site, at_call, mg_oracle):
        ts = mg_store(
            FaultPlan([FaultSpec(site, FaultKind.CRASH, at_call=at_call)])
        )
        mgr = LifecycleManager(ts)
        crashes = 0
        for i in range(MG_STEPS):
            try:
                ts.ingest("d", batch(i * 100.0), now=float(i))
            except SimulatedCrash:
                crashes += 1
                assert archive_bytes(ts) == mg_oracle[i]  # batch not landed
                ts.ingest("d", batch(i * 100.0), now=float(i))  # replayed
            try:
                mgr.tick(now=float(i))
            except SimulatedCrash:
                crashes += 1
                # Mid-rewrite, before any recovery: no row twice or lost.
                assert archive_bytes(ts) == mg_oracle[i + 1]
                assert_lineage_matches_store(ts)
                ts.sweep_superseded()
                assert archive_bytes(ts) == mg_oracle[i + 1]
                mgr.tick(now=float(i))
            assert archive_bytes(ts) == mg_oracle[i + 1]
        assert crashes == 1
        assert live_epochs(ts) == MG_GENERATIONS
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 3  # no garbage
        assert_lineage_matches_store(ts)

    #: Every compaction below crashes at its first delete and nothing
    #: sweeps, so all 22 inputs linger: the part of 10 epochs tombstones
    #: the parts of 4 and 3, which tombstone their own inputs in turn.
    CHAIN_CRASHES = [
        FaultSpec("tier.delete", FaultKind.CRASH, at_call=i) for i in range(1, 7)
    ]

    def _stranded_chains(self, extra=()):
        ts = mg_store(FaultPlan(self.CHAIN_CRASHES + list(extra)))
        for i in range(MG_STEPS):
            ts.ingest("d", batch(i * 100.0), now=float(i))
            try:
                ts.compact("d")
            except SimulatedCrash:
                pass
        return ts

    @pytest.mark.parametrize("at_sweep_delete", range(1, MG_DELETES + 1))
    def test_sweep_crash_never_resurrects_a_grandparent(
        self, at_sweep_delete, mg_oracle
    ):
        want = mg_oracle[-1]
        ts = self._stranded_chains(
            [
                FaultSpec(
                    "tier.delete",
                    FaultKind.CRASH,
                    at_call=len(self.CHAIN_CRASHES) + at_sweep_delete,
                )
            ]
        )
        assert live_epochs(ts) == MG_GENERATIONS
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 3 + MG_DELETES
        assert archive_bytes(ts) == want
        with pytest.raises(SimulatedCrash):
            ts.sweep_superseded()
        # The sweep died part-way up a chain: a mid-generation part may
        # be gone only if everything it tombstoned went first.
        assert archive_bytes(ts) == want
        assert_lineage_matches_store(ts)
        ts.sweep_superseded()
        assert archive_bytes(ts) == want
        assert live_epochs(ts) == MG_GENERATIONS
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 3
        assert_lineage_matches_store(ts)
