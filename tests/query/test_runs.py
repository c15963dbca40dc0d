"""Runs of small OCEAN parts scanned as one row group.

Between compactions a dataset grows a tail of small one-group parts;
``query_archive`` packs consecutive ones into runs of at most a row
group's rows and scans each run's live members once, over the run's
concatenated columns.  A hypothesis property over generated ingest
histories — pruned members inside a run, members whose dtypes differ
(which sends the run part by part), string columns with nulls, NaN timestamps,
open windows and projections — holds every answer byte for byte to the
decode-everything oracle and to the same store scanned part by part,
and the lineage read edges to the parts the planner did not prune.
Three cases pin the cache side: retiring a member releases the run's
entries, a run rebuilt after an append serves the new rows, and a store
that copies on get still hits the run's cache.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Col, ColumnTable
from repro.columnar.predicate import Not, Or
from repro.lineage import LineageCatalog
from repro.obs import METRICS
from repro.perf.baseline import baseline_mode
from repro.query import cache as qcache
from repro.query import plan_parts
from repro.storage import DataClass, ObjectStore, TierPolicy, TieredStore
from repro.storage.parts import Listing

ROW_GROUP = 32
NAMES = ("a", "b", "c", None)


@pytest.fixture(autouse=True)
def cold_cache():
    qcache.clear_row_group_cache()
    yield
    qcache.clear_row_group_cache()


def build_store(ocean=None):
    policy = TierPolicy(
        lake_retention_s=None,
        ocean_retention_s=float("inf"),
        glacier=False,
        row_group_size=ROW_GROUP,
    )
    ts = TieredStore(ocean=ocean, policies={DataClass.SILVER: policy})
    ts.register("d", DataClass.SILVER)
    return ts


def batch(t_start, n, seed, int_node=False, nan_at=(), str_tag=False):
    """``n`` rows from ``t_start`` on.  ``node`` is int or float, and
    ``tag`` int or str: numbers promote alike in one step or two, but
    ints meeting strs in a run's column would skip the normalization
    the plan's concatenation gives them."""
    rng = np.random.default_rng(seed)
    ts = t_start + np.arange(n, dtype=float)
    ts[[i for i in nan_at if i < n]] = np.nan
    node = rng.integers(0, 4, n)
    tag = rng.integers(0, 3, n)
    return ColumnTable(
        {
            "timestamp": ts,
            "node": node if int_node else node.astype(float),
            "value": rng.normal(100.0, 10.0, n),
            "name": np.array([NAMES[i] for i in rng.integers(0, 4, n)], dtype=object),
            "tag": tag.astype(str).astype(object) if str_tag else tag,
        }
    )


def assert_same(a: ColumnTable, b: ColumnTable) -> None:
    """Byte equality: names, order, dtypes and values (NaN, None included)."""
    assert a.column_names == b.column_names
    for n in a.column_names:
        assert a[n].dtype == b[n].dtype, n
        if a[n].dtype == object:
            assert a[n].tolist() == b[n].tolist(), n
        else:
            assert a[n].tobytes() == b[n].tobytes(), n


def part_by_part(ts, *args):
    with mock.patch.object(Listing, "runs", lambda self, max_rows: ()):
        return ts.query_archive("d", *args)


def runs_scanned(fn):
    before = METRICS.counter("query.runs_scanned")
    out = fn()
    return out, METRICS.counter("query.runs_scanned") - before


PREDICATES = [
    None,
    Col("value") > 100.0,
    Col("node") == 2,
    Col("name").isin(["a", None]),
    Not(Col("name") == "b"),
    Or(Col("value") < 90.0, Col("node").isin([0, 3])),
]
PROJECTIONS = [None, ["value"], ["name", "timestamp"], ["tag", "node", "value"]]

#: Mostly the same dtypes batch to batch, so most runs are not mixed.
rarely = st.sampled_from([False] * 7 + [True])
histories = st.lists(
    st.tuples(
        st.integers(1, 9),  # rows in the batch
        rarely,  # int (else float) node column
        st.lists(st.integers(0, 8), max_size=2),  # NaN timestamp rows
        rarely,  # str (else int) tag column
    ),
    min_size=2,
    max_size=9,
)
queries = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 90)),
        st.one_of(st.none(), st.integers(0, 40)),
        st.sampled_from(PREDICATES),
        st.sampled_from(PROJECTIONS),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(history=histories, asks=queries, compact_after=st.integers(0, 9))
def test_runs_answer_as_the_oracle_and_part_by_part(history, asks, compact_after):
    qcache.clear_row_group_cache()
    ts = build_store()
    for i, (n, int_node, nan_at, str_tag) in enumerate(history):
        batch_i = batch(i * 10.0, n, i, int_node, nan_at, str_tag)
        ts.ingest("d", batch_i, now=float(i))
        if i == compact_after:
            # One larger part ahead of the tail (several groups once it
            # holds more than a row group's rows).
            ts.compact("d", min_objects=2)
    # Everything once: every run built while all its members are fetched.
    asks = [(None, None, None, None)] + asks
    for t0, width, predicate, columns in asks:
        t1 = None if t0 is None or width is None else float(t0 + width)
        t0 = None if t0 is None else float(t0)
        args = (t0, t1, predicate, columns)
        # A fresh catalog per ask: a repeated question records into the
        # same query node, and the oracle reads every part.
        ts.lineage = cat = LineageCatalog()
        with ts.collect_reads() as reads:
            fast = ts.query_archive("d", *args)
        ts.lineage = None
        live = ts._live_parts("d")
        plan = plan_parts(
            "d", [(p.key, p.meta.size, p.stats) for p in live], t0, t1, predicate
        )
        want = {p.lineage_node for p, u in zip(live, plan.units) if not u.pruned}
        (node,) = reads
        assert {src for src, dst, _ in cat.edges() if dst == node} == want
        with baseline_mode():
            assert_same(fast, ts.query_archive("d", *args))
        assert_same(fast, part_by_part(ts, *args))


def ingest_tail(ts, n_parts, rows=4, start=0):
    for i in range(start, start + n_parts):
        ts.ingest("d", batch(i * 10.0, rows, i), now=float(i))


def test_dtype_change_scans_the_run_part_by_part():
    ts = build_store()
    for i, str_tag in enumerate([False, False, True, True]):
        ts.ingest("d", batch(i * 10.0, 4, i, str_tag=str_tag), now=float(i))
    (run,) = [r for _, r in ts._parts.listing(ts.ocean, "d").runs(ROW_GROUP)]
    everything, scanned = runs_scanned(lambda: ts.query_archive("d"))
    # The members disagree on ``tag``: the run is mixed, its members are
    # scanned as parts, and the columns its build cached before ``tag``
    # are released.
    assert run.mixed
    assert scanned == 0
    assert all(key[0] != run.token for key in qcache._cache)
    assert run.token not in qcache._run_members
    # Promoted by the plan's one concatenation: every tag a str.
    assert {type(x) for x in everything["tag"].tolist()} == {str}
    with baseline_mode():
        assert_same(everything, ts.query_archive("d"))
    # Asked again, the run is not built again: its members' chunks are
    # all cached by now, so nothing is decoded.
    misses = METRICS.counter("query.cache_misses")
    again, scanned = runs_scanned(lambda: ts.query_archive("d"))
    assert scanned == 0 and run.token not in qcache._run_members
    assert METRICS.counter("query.cache_misses") == misses
    assert_same(again, everything)


def test_pruned_members_inside_a_run_are_read_from_its_cache():
    ts = build_store()
    ingest_tail(ts, 4)
    ts.query_archive("d")  # builds the run's columns
    entries = qcache.row_group_cache_stats()["entries"]
    # Parts 0 and 2 survive the window's prune, part 1 between them
    # does not and is not fetched: the run's cache answers for the range.
    pred = Or(Col("timestamp") < 2.0, Col("timestamp") >= 21.0)
    got, scanned = runs_scanned(lambda: ts.query_archive("d", 0.0, 23.0, pred))
    assert scanned == 1
    assert qcache.row_group_cache_stats()["entries"] == entries
    assert got["timestamp"].tolist() == [0.0, 1.0, 21.0, 22.0]
    with baseline_mode():
        assert_same(got, ts.query_archive("d", 0.0, 23.0, pred))


def test_retiring_a_member_releases_the_runs_entries():
    ts = build_store()
    ingest_tail(ts, 4)
    ts.query_archive("d")
    stats = qcache.row_group_cache_stats()
    assert stats["entries"] == 5  # one concatenated column per column
    ts._retire(ts._live_parts("d")[1])
    assert qcache.row_group_cache_stats() == {**stats, "entries": 0, "bytes": 0}


def test_a_run_rebuilt_after_an_append_serves_the_new_rows():
    ts = build_store()
    ingest_tail(ts, 3)
    first, scanned = runs_scanned(lambda: ts.query_archive("d"))
    assert scanned == 1 and first.num_rows == 12
    ingest_tail(ts, 1, start=3)
    again, scanned = runs_scanned(lambda: ts.query_archive("d"))
    assert scanned == 1 and again.num_rows == 16
    with baseline_mode():
        assert_same(again, ts.query_archive("d"))
    assert again["timestamp"].tolist()[-4:] == [30.0, 31.0, 32.0, 33.0]


def test_a_store_that_copies_on_get_still_hits_the_runs_cache():
    class CopyingStore(ObjectStore):
        def get(self, bucket, key):
            return bytes(bytearray(super().get(bucket, key)))

    ts = build_store(ocean=CopyingStore())
    ingest_tail(ts, 4)
    first = ts.query_archive("d")
    hits = METRICS.counter("query.cache_hits")
    misses = METRICS.counter("query.cache_misses")
    again, scanned = runs_scanned(lambda: ts.query_archive("d"))
    assert scanned == 1
    assert METRICS.counter("query.cache_hits") - hits == 5
    assert METRICS.counter("query.cache_misses") == misses
    assert_same(again, first)
