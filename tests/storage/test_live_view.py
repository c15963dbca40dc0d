"""The part table's live listing is the fresh derivation, always.

:meth:`TieredStore._live_parts` answers from the part table's
per-dataset listing, stamped with :attr:`ObjectStore.stamp`, whose
records carry over to the next derivation wherever a part's
``ObjectMeta`` is the same object.  These tests move the store every way
it can move — through the tier API, through a crash between a rewrite's
commit put and its deletes, and behind the tier's back — and compare
the view with ``fresh_live`` (a listing taken now) after every step.
The generated histories of ``test_streaming_merge.py`` make the same
comparison after each of their steps.
"""

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.columnar.file_format import write_table
from repro.faults.errors import SimulatedCrash
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.storage import DataClass, ObjectStore, TieredStore, TierPolicy
from tests.storage.compaction_oracle import fresh_live, live_metas

POLICY = TierPolicy(
    lake_retention_s=None, ocean_retention_s=25.0, glacier=True, row_group_size=8
)


def table(t_start, n=10):
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=np.float64),
            "value": np.arange(n, dtype=np.float64),
        }
    )


def store(n_parts=0, datasets=("d",)):
    ts = TieredStore(policies={DataClass.SILVER: POLICY})
    for name in datasets:
        ts.register(name, DataClass.SILVER)
        for i in range(n_parts):
            ts.ingest(name, table(i * 100.0), now=float(i))
    return ts


def assert_view_is_fresh(ts, names=("d",)):
    for name in names:
        assert live_metas(ts, name) == fresh_live(ts, name)


def count_lists(monkeypatch):
    calls = []
    real = ObjectStore.list
    monkeypatch.setattr(
        ObjectStore,
        "list",
        lambda self, *a, **k: calls.append(a) or real(self, *a, **k),
    )
    return calls


class TestStamp:
    def test_every_mutation_moves_it_and_no_read_does(self):
        s = ObjectStore()
        s.create_bucket("b")
        stamps = [s.stamp]
        s.put("b", "k", b"x")
        stamps.append(s.stamp)
        s.put("b", "k", b"y", overwrite=True)
        stamps.append(s.stamp)
        with pytest.raises(ValueError):
            s.put("b", "k", b"z")  # refused: nothing changed
        s.get("b", "k"), s.head("b", "k"), s.list("b"), s.exists("b", "k")
        assert s.stamp == stamps[-1]
        s.delete("b", "k")
        stamps.append(s.stamp)
        with pytest.raises(KeyError):
            s.delete("b", "k")
        assert s.stamp == stamps[-1]
        assert stamps == sorted(set(stamps))  # strictly rising


class TestLiveView:
    def test_queries_between_mutations_list_nothing(self, monkeypatch):
        ts = store(6, datasets=("d", "e"))
        ts.query_archive("d")
        ts.query_archive("e")
        calls = count_lists(monkeypatch)
        for _ in range(5):
            ts.query_archive("d", 100.0, 300.0)
            ts.query_archive("e")
            ts.compact("d", min_objects=100)  # selects nothing
        assert calls == []
        ts.ingest("e", table(900.0), now=9.0)  # any put moves the stamp
        ts.query_archive("d")
        ts.query_archive("d")
        assert len(calls) == 1
        assert_view_is_fresh(ts, ("d", "e"))

    def test_view_cannot_be_mutated_in_place(self):
        ts = store(3)
        view = ts._live_parts("d")
        assert isinstance(view, tuple)
        assert ts._live_parts("d") is view

    def test_tier_api_transitions(self):
        ts = store()
        assert_view_is_fresh(ts)
        for i in range(8):
            ts.ingest("d", table(i * 100.0), now=i * 10.0)
            assert_view_is_fresh(ts)
        assert ts.compact("d")["merged"] == 8
        assert_view_is_fresh(ts)
        assert ts.enforce(now=60.0)["ocean_rewritten"] == 1  # split
        assert_view_is_fresh(ts)
        assert ts.enforce(now=1000.0)["ocean_archived"] == 1  # gone whole
        assert ts._live_parts("d") == ()
        assert_view_is_fresh(ts)

    def test_crash_between_commit_put_and_deletes(self):
        ts = store(5)
        before = ts._live_parts("d")
        crash = FaultPlan([FaultSpec("tier.delete", FaultKind.CRASH, at_call=1)])
        ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(crash))
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        # The commit put landed: the inputs are present but dead.
        (merged,) = ts._live_parts("d")
        assert merged.key not in {m.key for m in before}
        assert len(ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")) == 6
        assert_view_is_fresh(ts)
        assert ts.sweep_superseded("d") == 5
        assert ts._live_parts("d") == (merged,)
        assert_view_is_fresh(ts)

    def test_crash_before_the_store_changes_keeps_the_view(self, monkeypatch):
        ts = store(5)
        before = ts._live_parts("d")
        crash = FaultPlan([FaultSpec("tier.put", FaultKind.CRASH, at_call=1)])
        ts.ocean = FaultyObjectStore(ts.ocean, FaultInjector(crash))
        assert ts._live_parts("d") == before  # re-derived once: new front
        calls = count_lists(monkeypatch)
        with pytest.raises(SimulatedCrash):
            ts.compact("d")
        assert ts._live_parts("d") is ts._live_parts("d")
        assert ts._live_parts("d") == before
        assert calls == []
        assert_view_is_fresh(ts)

    def test_puts_and_deletes_behind_the_tiers_back(self):
        ts = store(4)
        ts._live_parts("d")
        ts.ocean.put(
            ts.OCEAN_BUCKET,
            "d/part-00000099.rcf",
            write_table(table(900.0)),
            created_at=0.5,
            user_meta={"dataset": "d"},
        )
        assert [m.key for m in ts._live_parts("d")][1] == "d/part-00000099.rcf"
        assert_view_is_fresh(ts)
        ts.ocean.delete(ts.OCEAN_BUCKET, "d/part-00000002.rcf")
        assert len(ts._live_parts("d")) == 4
        assert_view_is_fresh(ts)

    def test_another_store_swapped_in_is_not_answered_from_the_old_one(self):
        ts = store(3)
        assert len(ts._live_parts("d")) == 3
        other = ObjectStore()
        other.create_bucket(ts.OCEAN_BUCKET)
        for _ in range(3):  # same stamp as the store it replaces
            other.put(ts.OCEAN_BUCKET, f"x/{other.stamp}", b"")
        assert other.stamp == ts.ocean.stamp
        ts.ocean = other
        assert ts._live_parts("d") == ()
