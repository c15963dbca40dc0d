"""One owner for everything derived from an OCEAN part.

A part's record, its read handle, its parsed manifest, its row-group
cache entries, its rollup partials and its lineage node
all go when the part does, whichever of the tier store's deletion sites
removes it — and a part's manifest is parsed, and its bytes hashed,
once per part over a whole history, with no clock involved.  The store
also numbers parts after whatever its tiers already hold, so a store
reopened over them can write.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.columnar.file_format import write_table
from repro.faults.errors import SimulatedCrash
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.lineage import LineageCatalog
from repro.obs import METRICS
from repro.query import cache as qcache
from repro.storage import DataClass, TapeArchive, TieredStore, TierPolicy
from repro.storage.rollup import RollupSpec
from tests.storage.compaction_oracle import dump

ROLLUP = "d.by_node"


def policy(**overrides):
    fields = dict(
        lake_retention_s=None,
        ocean_retention_s=3.5,
        glacier=True,
        row_group_size=8,
        compact_min_parts=2,
    )
    fields.update(overrides)
    return TierPolicy(**fields)


def batch(t_start, n=12):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=np.float64),
            "node": np.arange(n, dtype=np.int64) % 3,
            "value": rng.normal(100.0, 10.0, n),
        }
    )


def build(ocean=None, glacier=None, **overrides):
    ts = TieredStore(
        ocean=ocean,
        glacier=glacier,
        policies={DataClass.SILVER: policy(**overrides)},
        lineage=LineageCatalog(),
    )
    ts.register("d", DataClass.SILVER)
    return ts


@pytest.fixture(autouse=True)
def cold_cache():
    qcache.clear_row_group_cache()
    yield
    qcache.clear_row_group_cache()


# -- retire: every deletion site drops everything -------------------------------


def part_named(ts, key):
    return next(p for p in ts._live_parts("d") if p.key == key)


def compaction_input(ts):
    victim = part_named(ts, "d/part-00000000.rcf")
    return victim, lambda: ts.compact("d")


def split_original(ts):
    ts.compact("d")
    ts.query_archive("d")
    (victim,) = ts._live_parts("d")
    return victim, lambda: ts.enforce(now=5.0)  # epochs 0 and 1 expire


def whole_age_out(ts):
    victim = part_named(ts, "d/part-00000000.rcf")
    return victim, lambda: ts.enforce(now=4.0)  # epoch 0 expires


def sweep(ts):
    victim = part_named(ts, "d/part-00000000.rcf")
    ts.ocean = FaultyObjectStore(
        ts.ocean,
        FaultInjector(FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)])),
    )
    with pytest.raises(SimulatedCrash):
        ts.compact("d")  # committed, then died before any input went
    return victim, lambda: ts.sweep_superseded("d")


def overwrite(ts):
    victim = part_named(ts, "d/part-00000001.rcf")
    head = victim.meta  # not the record: it must be free to go

    def put_other_bytes():
        ts.ocean.put(
            ts.OCEAN_BUCKET,
            head.key,
            write_table(batch(999.0)),
            created_at=head.created_at,
            user_meta=head.user_meta,
            overwrite=True,
        )
        ts.query_archive("d")  # the scan that meets the new bytes

    return victim, put_other_bytes


@pytest.mark.parametrize(
    "site", [compaction_input, split_original, whole_age_out, sweep, overwrite]
)
def test_every_retire_site_drops_everything_derived(site):
    ts = build()
    ts.add_rollup(RollupSpec(ROLLUP, "d", ("node",), "value"))
    for i in range(4):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    ts.query_archive("d")
    victim, remove = site(ts)
    key, cat = victim.key, ts.lineage
    token = victim.reader.digest()
    assert victim.stats is not None and victim.spans is not None
    assert token in qcache._token_keys
    assert key in ts._rollups[ROLLUP].part_keys()
    assert not cat.node(cat.part_node(ts.OCEAN_BUCKET, key))["retired"]
    record, reader = weakref.ref(victim), weakref.ref(victim.reader)

    del victim
    remove()
    ts._live_parts("d")  # the next derivation after the delete
    gc.collect()
    assert record() is None and reader() is None
    assert token not in qcache._token_keys
    if site is overwrite:
        # The key lives on under other bytes: its partial and its node
        # are the key's, not the old bytes'.
        assert ts.ocean.exists(ts.OCEAN_BUCKET, key)
        return
    assert not ts.ocean.exists(ts.OCEAN_BUCKET, key)
    assert key not in ts._rollups[ROLLUP].part_keys()
    assert cat.node(cat.part_node(ts.OCEAN_BUCKET, key))["retired"]
    assert cat.node(cat.partial_node(ROLLUP, key))["retired"]


def test_a_key_deleted_behind_the_store_releases_its_cached_groups():
    # Deleting straight from OCEAN bypasses the store's retire: the next
    # listing drops the record, and must release what the row-group
    # cache holds under the record's open handle on the way.
    ts = build()
    for i in range(3):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    ts.query_archive("d")
    victim = part_named(ts, "d/part-00000000.rcf")
    token = victim.reader.digest()
    assert token in qcache._token_keys
    reader = weakref.ref(victim.reader)

    ts.ocean.delete(ts.OCEAN_BUCKET, victim.key)
    ts.query_archive("d")
    del victim
    gc.collect()
    assert reader() is None
    assert token not in qcache._token_keys
    left = qcache.row_group_cache_stats()
    qcache.clear_row_group_cache()
    ts.query_archive("d")  # what the surviving parts alone leave cached
    assert left == qcache.row_group_cache_stats()


# -- once per part, over a whole history ----------------------------------------


def test_seeded_history_parses_and_opens_each_part_once():
    """Ingest, compaction, retention splits and whole age-outs, crashed
    deletes and the sweeps that finish them, and archive queries in
    between, drawn from one seed."""
    rng = np.random.default_rng(7)
    ts = build(ocean_retention_s=12.0)
    crashes = [FaultSpec("tier.delete", FaultKind.CRASH, at_call=c) for c in (3, 11, 19)]
    ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(FaultPlan(crashes)))
    parses0 = METRICS.counter("manifest.parses")
    opened0 = METRICS.counter("query.parts_opened")
    crashed = 0
    for step in range(40):
        now = float(step)
        ts.ingest("d", batch(step * 100.0), now=now)
        try:
            if rng.random() < 0.3:
                ts.compact("d")
            if rng.random() < 0.2:
                ts.enforce(now=now)
            if rng.random() < 0.2:
                ts.sweep_superseded("d")
        except SimulatedCrash:
            crashed += 1
        for _ in range(rng.integers(0, 3)):
            t0 = float(rng.uniform(0.0, step * 100.0 + 1.0))
            ts.query_archive("d", t0, t0 + float(rng.uniform(50.0, 800.0)))
    assert crashed == len(crashes)
    cat = ts.lineage
    part_nodes = {cat.part_node(ts.OCEAN_BUCKET, n["attrs"]["key"]) for n in cat.nodes("part")}
    scanned = {src for src, _, kind in cat.edges() if kind == "read" and src in part_nodes}
    assert len(part_nodes) == ts.ocean.puts  # every part ever put, once each
    assert METRICS.counter("manifest.parses") - parses0 <= 4 * ts.ocean.puts
    assert METRICS.counter("query.parts_opened") - opened0 == len(scanned) > 0


# -- part numbers resume after what the tiers hold ------------------------------


def run_history(ts, reopen_after=None):
    """Ingest, compact, split-expire and ingest again; returns every
    store the history ran on (a reopened one is built over the first's
    tiers after step ``reopen_after``)."""
    stores = [ts]
    for step in range(10):
        ts.ingest("d", batch(step * 100.0), now=float(step))
        if step % 4 == 3:
            ts.compact("d")
        if step == 6:
            assert ts.enforce(now=5.5)["ocean_rewritten"] == 1
        if step == reopen_after:
            ts = build(ocean=ts.ocean, glacier=ts.glacier, ocean_retention_s=4.0)
            stores.append(ts)
    return stores


@pytest.mark.parametrize("reopen_after", [0, 3, 6])
def test_a_reopened_store_writes_what_the_first_would_have(reopen_after):
    # Regression: part numbering restarted at 0 on every ``register``,
    # so the first ingest or compaction of a reopened store collided
    # with a key already in OCEAN.
    (twin,) = run_history(build(ocean_retention_s=4.0))
    first, reopened = run_history(build(ocean_retention_s=4.0), reopen_after)
    assert dump(reopened) == dump(twin)
    assert reopened.glacier.keys() == twin.glacier.keys()


def test_a_number_held_only_on_tape_is_never_reused():
    # Every part aged out to GLACIER: OCEAN is empty, but the numbers
    # are taken — a new part under one of them would find "its" archive
    # already there and be deleted without being archived.
    first = build()
    for i in range(3):
        first.ingest("d", batch(i * 100.0), now=float(i))
    assert first.enforce(now=10.0)["ocean_archived"] == 3
    assert first.ocean.list(first.OCEAN_BUCKET, prefix="d/") == []
    reopened = build(ocean=first.ocean, glacier=first.glacier)
    reopened.ingest("d", batch(300.0), now=20.0)
    ((key, _, _, blob),) = dump(reopened)
    assert key == "d/part-00000003.rcf"
    assert reopened.enforce(now=30.0) == {
        "lake_segments_dropped": 0,
        "ocean_archived": 1,
        "ocean_deleted": 0,
        "ocean_rewritten": 0,
    }
    assert reopened.glacier.retrieve(key)[0] == blob


def test_an_expired_slice_on_tape_holds_its_number():
    tape = TapeArchive()
    tape.archive("d/part-00000007.rcf@expired", b"rows")
    tape.archive("e/part-00000042.rcf", b"another dataset's")
    ts = build(glacier=tape)
    ts.ingest("d", batch(0.0), now=0.0)
    assert [key for key, *_ in dump(ts)] == ["d/part-00000008.rcf"]
