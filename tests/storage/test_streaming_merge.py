"""The streaming merge writes what the whole-table merge wrote.

Every compaction here runs twice — once through
:meth:`TieredStore.compact` and once through the whole-table oracle in
``compaction_oracle.py`` — on stores fed the same history, and the
OCEAN contents (keys, bytes, manifests, ``created_at``) must be equal
after every step.  The named cases also pin *which* way the merge
went, through ``tier.compact.merges_in_order`` / ``merges_resorted``.

Values never include ``-0.0``: a part-level bound merged from row-group
bounds can differ from a whole-column reduction in the sign of a zero
(see :func:`repro.storage.manifest.group_stats`).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable
from repro.columnar.file_format import read_table, write_table
from repro.obs import METRICS
from repro.storage import DataClass, TieredStore, TierPolicy, manifest
from repro.storage.rollup import RollupSpec
from tests.storage.compaction_oracle import (
    WholeTableStore,
    dump,
    fresh_live,
    live_metas,
)

ROW_GROUP = 8


def policies(**overrides):
    fields = dict(
        lake_retention_s=None,
        ocean_retention_s=1000.0,
        glacier=True,
        row_group_size=ROW_GROUP,
    )
    fields.update(overrides)
    return {DataClass.SILVER: TierPolicy(**fields)}


def pair(**overrides):
    """The store under test and its oracle, one dataset ``d`` each."""
    stores = (
        TieredStore(policies=policies(**overrides)),
        WholeTableStore(policies=policies(**overrides)),
    )
    for store in stores:
        store.register("d", DataClass.SILVER)
    return stores


def table(t_start, n, *, hosts=("a", "b"), value_dtype=np.float64, order=None):
    ts = t_start + np.arange(n, dtype=np.float64)
    if order is not None:
        ts = ts[order]
    return ColumnTable(
        {
            "timestamp": ts,
            "node": np.arange(n, dtype=np.int64) % 3,
            "host": np.array([hosts[i % len(hosts)] for i in range(n)], dtype=object),
            "value": (np.arange(n) * 3 + int(t_start)).astype(value_dtype),
        }
    )


def merges():
    return (
        METRICS.counter("tier.compact.merges_in_order"),
        METRICS.counter("tier.compact.merges_resorted"),
    )


def compact_both(stores, expect=None, min_objects=4):
    """Compact ``d`` on both stores; the store under test must have
    gone ``expect`` ("in_order"/"resorted") and written the oracle's
    bytes."""
    new, oracle = stores
    before = merges()
    report = new.compact("d", min_objects=min_objects)
    after = merges()
    assert oracle.compact("d", min_objects=min_objects) == report
    assert dump(new) == dump(oracle)
    assert live_metas(new, "d") == fresh_live(new, "d")
    if expect is not None:
        assert report["merged"] > 0
        went = (after[0] - before[0], after[1] - before[1])
        assert went == ((1, 0) if expect == "in_order" else (0, 1))
    return report


class TestNamedCases:
    def test_ordered_parts_stream_across_row_group_boundaries(self):
        stores = pair()
        for i, n in enumerate([5, 13, 8, 3, 21]):  # ragged against 8
            for s in stores:
                s.ingest("d", table(i * 100.0, n), now=float(i))
        compact_both(stores, "in_order")
        out = stores[0].query_archive("d")
        assert out.num_rows == 50
        assert (np.diff(out["timestamp"]) > 0).all()

    def test_raw_unsorted_input_is_sorted(self):
        stores = pair()
        shuffle = np.random.default_rng(0).permutation(12)
        for i in range(4):
            for s in stores:
                s.ingest(
                    "d",
                    table(i * 100.0, 12, order=shuffle if i == 2 else None),
                    now=float(i),
                )
        compact_both(stores, "resorted")

    def test_nan_timestamp_is_sorted(self):
        stores = pair()
        for i in range(4):
            t = table(i * 100.0, 10)
            if i == 3:
                ts = t["timestamp"].copy()
                ts[4] = np.nan
                t = t.with_column("timestamp", ts)
            for s in stores:
                s.ingest("d", t, now=float(i))
        compact_both(stores, "resorted")

    def test_equal_epochs_in_time_order_stream(self):
        stores = pair()
        for i in range(4):
            for s in stores:
                s.ingest("d", table(i * 100.0, 10), now=7.0)  # one epoch
        compact_both(stores, "in_order")
        (meta,) = stores[0]._live_parts("d")
        assert meta.spans == ((7.0, 40),)

    def test_equal_epochs_interleaved_in_time_are_sorted(self):
        stores = pair()
        for i, start in enumerate([0.0, 100.0, 50.0, 200.0]):
            for s in stores:
                s.ingest("d", table(start, 10), now=7.0)
        compact_both(stores, "resorted")

    def test_late_batch_under_a_newer_epoch_streams(self):
        # Time falls at the part boundary, but the epoch rises there:
        # (epoch, time) order holds and nothing needs sorting.
        stores = pair()
        for i, start in enumerate([0.0, 100.0, 50.0, 200.0]):
            for s in stores:
                s.ingest("d", table(start, 10), now=float(i))
        compact_both(stores, "in_order")

    def test_split_remainder_as_first_input(self):
        stores = pair()
        for i in range(8):
            for s in stores:
                s.ingest("d", table(i * 100.0, 6), now=i * 10.0)
        compact_both(stores, "in_order")
        for s in stores:
            assert s.enforce(now=1015.0)["ocean_rewritten"] == 1
        assert dump(stores[0]) == dump(stores[1])
        for i in range(8, 14):
            for s in stores:
                s.ingest("d", table(i * 100.0, 6), now=1000.0 + i)
        # Everything joins: the remainder is the oldest, first input.
        report = compact_both(stores, "in_order", min_objects=2)
        assert report["merged"] == 7

    def test_legacy_part_without_spans(self):
        stores = pair()
        for s in stores:
            s._allocate_part(s._meta("d"))
            s.ocean.put(
                s.OCEAN_BUCKET,
                "d/part-00000000.rcf",
                write_table(table(0.0, 11), row_group_size=ROW_GROUP),
                created_at=0.0,
                user_meta={"dataset": "d", "class": "silver"},
            )
            for i in range(1, 4):
                s.ingest("d", table(i * 100.0, 11), now=float(i))
        compact_both(stores, "in_order")

    @pytest.mark.parametrize(
        "bogus", [[(1.0, 5)], [(1.0, 12), (2.0, -3)]]  # 5 of 9 rows; 12 - 3
    )
    def test_mangled_spans_fall_back_to_created_at(self, bogus):
        stores = pair()
        for s in stores:
            for i in range(4):
                s.ingest("d", table(i * 100.0, 9), now=float(i))
            obj = s._live_parts("d")[1]
            s.ocean.put(
                s.OCEAN_BUCKET,
                obj.key,
                s.ocean.get(s.OCEAN_BUCKET, obj.key),
                created_at=obj.created_at,
                user_meta={
                    **obj.meta.user_meta,
                    manifest.SPANS_META_KEY: manifest.spans_to_meta(bogus),
                },
                overwrite=True,
            )
        compact_both(stores, "in_order")
        (meta,) = stores[0]._live_parts("d")
        assert meta.spans == tuple(
            (float(i), 9) for i in range(4)
        )

    def test_dataset_without_the_time_column_is_sorted(self):
        stores = pair()
        for i in range(4):
            for s in stores:
                s.ingest("d", table(i * 100.0, 10).drop(["timestamp"]), now=float(i))
        compact_both(stores, "resorted")

    def test_string_time_column_is_left_to_the_sort(self):
        stores = pair()
        for i in range(4):
            t = table(i * 100.0, 10)
            t = t.with_column("timestamp", [str(int(x)) for x in t["timestamp"]])
            for s in stores:
                s.ingest("d", t, now=float(i))
        compact_both(stores, "resorted")

    @pytest.mark.parametrize("drift_at", [1, 3])
    def test_dtype_drift_is_promoted_as_a_concatenation_would(self, drift_at):
        stores = pair()
        for i in range(4):
            dtype = np.int64 if i == drift_at else np.float64
            for s in stores:
                s.ingest("d", table(i * 100.0, 10, value_dtype=dtype), now=float(i))
        compact_both(stores, "in_order")
        out = read_table(dump(stores[0])[0][3])
        assert out["value"].dtype == np.float64

    def test_column_turning_into_strings_is_promoted(self):
        stores = pair()
        for i in range(4):
            t = table(i * 100.0, 10)
            if i == 2:
                t = t.with_column("node", [f"n{x}" for x in t["node"]])
            for s in stores:
                s.ingest("d", t, now=float(i))
        compact_both(stores, "resorted")

    def test_vocabularies_change_on_both_sides_of_a_chunk_boundary(self):
        from repro.columnar.encodings import DICTIONARY
        from repro.columnar.file_format import RcfReader

        stores = pair()
        vocabularies = [("a", "b"), ("a", "b"), ("c", "d"), ("c", "d"), ("a", "b")]
        for i, hosts in enumerate(vocabularies):
            for s in stores:
                s.ingest("d", table(i * 100.0, 12, hosts=hosts), now=float(i))
        compact_both(stores, "in_order")
        reader = RcfReader(dump(stores[0])[0][3])
        # Vocabularies change mid-file, and every group — some of them
        # assembled from two inputs — carries its own.
        vocabs = [
            "".join(sorted(set(reader.decode_group_column(g, "host"))))
            for g in range(reader.num_row_groups)
        ]
        assert vocabs == ["ab"] * 3 + ["cd"] * 3 + ["ab"] * 2
        assert all(
            reader.group_encoding(g, "host") == DICTIONARY
            for g in range(reader.num_row_groups)
        )

    def test_first_inputs_full_groups_are_copied(self):

        stores = pair()
        for i in range(5):
            for s in stores:
                s.ingest("d", table(i * 100.0, 11), now=float(i))
        compact_both(stores, "in_order")  # 55 rows: 6 full groups + 7
        for i in range(5, 10):
            for s in stores:
                s.ingest("d", table(i * 100.0, 11), now=float(i))
        groups = METRICS.counter("tier.compact.groups_spliced")
        rows = METRICS.counter("tier.compact.rows_spliced")
        # Five new epochs let the part of five join, as first input.
        report = compact_both(stores, "in_order", min_objects=2)
        assert report["merged"] == 6
        assert METRICS.counter("tier.compact.groups_spliced") - groups == 6
        assert METRICS.counter("tier.compact.rows_spliced") - rows == 48

    @pytest.mark.parametrize(
        "change,copied",
        [({}, 4), ({"codec": "high"}, 0), ({"row_group_size": 128}, 0)],
    )
    def test_groups_written_under_another_policy_are_encoded_again(
        self, change, copied
    ):
        """A policy changed over a store's life reaches the old rows:
        groups are copied only under the codec and group size that
        wrote them (the first case is the control)."""
        stores = pair(row_group_size=256, codec="fast")
        rng = np.random.default_rng(0)

        def ingest(i):
            t = ColumnTable(
                {
                    "timestamp": i * 1000.0 + np.arange(300, dtype=np.float64),
                    "node": rng.integers(0, 4, 300),
                    "value": np.round(rng.normal(100.0, 2.0, 300)),
                }
            )
            for s in stores:
                s.ingest("d", t, now=float(i))

        for i in range(4):
            ingest(i)
        compact_both(stores, "in_order")  # 1200 rows: 4 full groups + 176
        for s in stores:
            s.policies = policies(**{"row_group_size": 256, "codec": "fast", **change})
        for i in range(4, 8):
            ingest(i)
        before = METRICS.counter("tier.compact.groups_spliced")
        report = compact_both(stores, "in_order", min_objects=2)
        assert report["merged"] == 5
        assert METRICS.counter("tier.compact.groups_spliced") - before == copied

    def test_rollup_dataset_keeps_its_partials(self):
        stores = pair()
        for s in stores:
            s.add_rollup(RollupSpec("d.by_node", "d", ("node",), "value"))
            for i in range(5):
                s.ingest(
                    "d",
                    table(i * 100.0, 10, value_dtype=np.float64).with_column(
                        "value", np.random.default_rng(i).normal(100.0, 7.0, 10)
                    ),
                    now=float(i),
                )
        backfilled = METRICS.counter("rollup.parts_backfilled")
        compact_both(stores, "in_order")
        got, want = (s.query_rollup("d.by_node") for s in stores)
        for name in want.column_names:
            assert got[name].tobytes() == want[name].tobytes()
        assert METRICS.counter("rollup.parts_backfilled") == backfilled

    def test_lineage_edges_are_the_oracles(self):
        from repro.lineage import LineageCatalog

        stores = (
            TieredStore(policies=policies(), lineage=LineageCatalog()),
            WholeTableStore(policies=policies(), lineage=LineageCatalog()),
        )
        for s in stores:
            s.register("d", DataClass.SILVER)
            for i in range(5):
                s.ingest("d", table(i * 100.0, 10), now=float(i))
        compact_both(stores, "in_order")
        assert stores[0].lineage.export_digest() == stores[1].lineage.export_digest()


class TestTheSuiteBites:
    def test_an_order_proof_forced_to_yes_writes_other_bytes(self, monkeypatch):
        """Mutation check: with the proof answering "in order" for
        anything, the unsorted case must stop matching its oracle —
        the comparison above is what stands between a wrong proof and
        a misordered part."""
        from repro.storage import compaction

        monkeypatch.setattr(compaction, "_time_in_order", lambda *a: True)
        stores = pair()
        shuffle = np.random.default_rng(0).permutation(12)
        for i in range(4):
            for s in stores:
                s.ingest(
                    "d",
                    table(i * 100.0, 12, order=shuffle if i == 2 else None),
                    now=float(i),
                )
        for s in stores:
            s.compact("d")
        assert dump(stores[0]) != dump(stores[1])


#: One ingest of a generated history: rows, start second, epoch step
#: (0 repeats the previous epoch), row order, value dtype, vocabulary.
STEP = st.tuples(
    st.integers(1, 30),
    st.integers(0, 40),
    st.integers(0, 2),
    st.sampled_from(["sorted"] * 10 + ["shuffled", "nan"]),
    st.sampled_from([np.float64] * 7 + [np.int64]),
    st.sampled_from([("a", "b"), ("a", "b"), ("c",), ("a", "b", "c")]),
)


class TestGeneratedHistories:
    @given(
        steps=st.lists(STEP, min_size=4, max_size=14),
        m=st.integers(2, 4),
        splits=st.sets(st.integers(0, 13), max_size=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_compaction_writes_the_oracles_bytes(self, steps, m, splits):
        """Compact after every ingest (duplicate timestamps, late
        arrivals, repeated epochs, shuffled and NaN times, dtype drift
        and changing vocabularies included), with retention splits in
        between so that remainders become first inputs."""
        stores = pair(ocean_retention_s=25.0)
        now = 0.0
        for i, (n, start, step, shape, dtype, hosts) in enumerate(steps):
            now += step
            order = None
            if shape != "sorted":
                order = np.random.default_rng(i).permutation(n)
            t = table(start * 10.0, n, hosts=hosts, value_dtype=dtype, order=order)
            t = t.with_column("timestamp", t["timestamp"] // 2)  # duplicates
            if shape == "nan":
                ts = t["timestamp"].copy()
                ts[::3] = np.nan
                t = t.with_column("timestamp", ts)
            for s in stores:
                s.ingest("d", t, now=now)
            compact_both(stores, min_objects=m)
            if i in splits:
                # The older half of the epochs expires.
                reports = [s.enforce(now=25.0 + now / 2) for s in stores]
                assert reports[0] == reports[1]
                assert dump(stores[0]) == dump(stores[1])
                assert live_metas(stores[0], "d") == fresh_live(stores[0], "d")
        assert stores[0].query_archive("d") == stores[1].query_archive("d")


class TestMemory:
    """What a merge holds, counted by ``tracemalloc`` — no clock."""

    PARTS = 40

    def _store(self, cls, rows_per_part, shuffle_part=None):
        store = cls(
            policies={
                DataClass.SILVER: TierPolicy(
                    lake_retention_s=None, ocean_retention_s=1e9, glacier=True
                )
            }
        )
        store.register("d", DataClass.SILVER)
        n = rows_per_part
        decoded = 0
        for i in range(self.PARTS):
            rng = np.random.default_rng(i)
            ts = i * float(n) + np.arange(n, dtype=np.float64)
            if i == shuffle_part:
                ts = rng.permutation(ts)
            t = ColumnTable(
                {
                    "timestamp": ts,
                    "node": rng.integers(0, 64, n),
                    "value": rng.normal(100.0, 10.0, n),
                }
            )
            decoded += t.nbytes
            store.ingest("d", t, now=float(i))
        return store, decoded

    @staticmethod
    def _peak_of_compact(store):
        tracemalloc.start()
        try:
            report = store.compact("d")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report["merged"] == TestMemory.PARTS
        return peak

    def test_ordered_parts_merge_in_a_few_row_groups(self):
        # 1.04 M rows: fifteen full row groups and a ragged one.
        store, decoded = self._store(TieredStore, 26_000)
        before = merges()
        peak = self._peak_of_compact(store)
        assert merges() == (before[0] + 1, before[1])
        row_group = 65_536 * 3 * 8
        # The whole-table merge held about four times ``decoded``; the
        # streamed one holds the encoded output and a few row groups.
        assert peak < decoded + 4 * row_group
        (part,) = store._live_parts("d")
        assert sum(n for _, n in part.spans) == 1_040_000

    def test_unsorted_history_still_sorts_within_the_old_bound(self):
        store, decoded = self._store(TieredStore, 6_000, shuffle_part=20)
        oracle, _ = self._store(WholeTableStore, 6_000, shuffle_part=20)
        before = merges()
        peak = self._peak_of_compact(store)
        assert merges() == (before[0], before[1] + 1)
        assert peak > 2 * decoded  # it did materialize, sort and gather
        assert peak <= 1.05 * self._peak_of_compact(oracle)
        assert dump(store) == dump(oracle)
