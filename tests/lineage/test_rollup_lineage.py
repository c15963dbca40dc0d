"""Rollup partial nodes are recorded where partials are made.

A partial's node is recorded at the commit that observes its part, at
a query's backfill, or when :meth:`TieredStore.reconcile_lineage`
adopts the partials a store holds into a rebuilt catalog.  A rollup
answer records only its own query node and links the partials' ids,
derived once per rollup version — so answering again on an unchanged
store records no partial, and a rebuilt catalog still links the same
partials with the same edges.
"""

from collections import Counter

import numpy as np

from repro.columnar import ColumnTable
from repro.lineage import LineageCatalog, rollup_partial_id
from repro.storage import DataClass, RollupSpec, TieredStore

ROLLUP = "d.node_power"


class CountingCatalog(LineageCatalog):
    """A catalog that counts ``record`` calls by node kind."""

    def __init__(self) -> None:
        super().__init__()
        self.records: Counter = Counter()

    def record(self, kind, coords, attrs=None, span=None):
        self.records[kind] += 1
        return super().record(kind, coords, attrs, span)


def batch(t_start, n=40):
    rng = np.random.default_rng(int(t_start))
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": rng.integers(0, 8, n),
            "value": rng.normal(100.0, 10.0, n),
        }
    )


def build_store(catalog, early, late):
    """``early`` parts ingested before the rollup exists (backfilled by
    its first query), ``late`` ones after (observed at their commit)."""
    ts = TieredStore(lineage=catalog)
    ts.register("d", DataClass.SILVER)
    for i in range(early):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    ts.add_rollup(RollupSpec(name=ROLLUP, source="d", keys=("node",), value="value"))
    for i in range(early, early + late):
        ts.ingest("d", batch(i * 100.0), now=float(i))
    return ts


def live_keys(ts):
    return sorted(p.key for p in ts._live_parts("d"))


def test_an_unchanged_store_records_no_partial():
    cat = CountingCatalog()
    ts = build_store(cat, early=3, late=4)
    assert cat.records["rollup_partial"] == 4  # at the late parts' commits
    ts.query_rollup(ROLLUP)
    assert cat.records["rollup_partial"] == 7  # + the backfill of the early three
    cat.records.clear()
    for _ in range(3):
        ts.query_rollup(ROLLUP)
    assert cat.records == {"query_result": 3}
    # A new part's partial is recorded at its commit, not by the answer.
    ts.ingest("d", batch(900.0), now=9.0)
    assert cat.records["rollup_partial"] == 1
    ts.query_rollup(ROLLUP)
    assert cat.records["rollup_partial"] == 1


def test_the_answer_reads_every_live_partial():
    ts = build_store(LineageCatalog(), early=2, late=5)
    ts.compact("d", min_objects=2)
    ts.ingest("d", batch(2000.0), now=20.0)
    with ts.collect_reads() as reads:
        ts.query_rollup(ROLLUP)
    (node,) = reads
    srcs = {src for src, dst, kind in ts.lineage.edges() if dst == node}
    assert srcs == {rollup_partial_id(ROLLUP, k) for k in live_keys(ts)}
    for key in live_keys(ts):
        partial = ts.lineage.node(rollup_partial_id(ROLLUP, key))
        assert partial is not None and not partial["retired"]


def partial_view(cat):
    """The live rollup-partial nodes and every edge touching them."""
    nodes = {
        n["id"] for n in cat.nodes("rollup_partial") if not n["retired"]
    }
    edges = {e for e in cat.edges() if e[0] in nodes or e[1] in nodes}
    return nodes, edges


def test_a_rebuilt_catalog_links_the_same_partials():
    ts = build_store(LineageCatalog(), early=3, late=5)
    ts.query_rollup(ROLLUP)
    ts.compact("d", min_objects=2)
    ts.ingest("d", batch(2000.0), now=20.0)
    ts.query_rollup(ROLLUP)
    recorded = partial_view(ts.lineage)
    assert len(recorded[0]) == len(live_keys(ts)) == 2

    ts.lineage = CountingCatalog()
    ts.reconcile_lineage()
    adopted = ts.lineage.records["rollup_partial"]
    assert adopted == len(live_keys(ts))
    ts.query_rollup(ROLLUP)
    assert ts.lineage.records["rollup_partial"] == adopted
    assert partial_view(ts.lineage) == recorded
