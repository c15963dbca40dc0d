"""Planner unit tests: what gets planned in, pruned, or cut."""

import numpy as np
import pytest

from repro.columnar import Col, ColumnTable, write_table
from repro.query import (
    PartUnit,
    SegmentUnit,
    plan_parts,
    plan_segments,
)
from repro.query.scan import fold_time_predicate
from repro.storage.manifest import stats_from_meta, stats_to_meta, table_stats


def seg(t_start, n=10):
    t = ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "v": np.arange(n, dtype=float),
        }
    )
    return (t_start, t_start + n - 1.0, t)


class TestSegmentPlanning:
    def test_window_prunes_old_and_cuts_future(self):
        segments = [seg(0.0), seg(10.0), seg(20.0), seg(30.0)]
        plan = plan_segments("t", segments, 25.0, 26.0)
        # seg(30) starts after the window's upper edge: cut entirely.
        assert len(plan.units) == 3
        assert [u.pruned for u in plan.units] == [True, True, False]
        assert plan.pruned_units == 2 and plan.live_units == 1
        assert all(isinstance(u, SegmentUnit) for u in plan.units)
        assert plan.units[0].reason == "time"

    def test_unbounded_keeps_everything(self):
        segments = [seg(0.0), seg(10.0)]
        plan = plan_segments("t", segments)
        assert len(plan.units) == 2
        assert plan.pruned_units == 0

    def test_segment_starting_at_the_open_upper_edge_is_pruned(self):
        (unit,) = plan_segments("t", [seg(10.0)], 0.0, 10.0).units
        assert unit.pruned and (unit.row_lo, unit.row_hi) == (0, 0)
        (unit,) = plan_segments("t", [seg(10.0)], 0.0, 10.5).units
        assert not unit.pruned and (unit.row_lo, unit.row_hi) == (0, 10)

    def test_summary_shape(self):
        plan = plan_segments("t", [seg(0.0)], 100.0, 200.0)
        s = plan.summary()
        assert s["source"] == "lake"
        assert s["units"] == 1 and s["pruned"] == 1 and s["live"] == 0


class TestPartPlanning:
    def _stats(self, t):
        # Round-trip through the manifest encoding, as production does.
        return stats_from_meta(stats_to_meta(table_stats(t)))

    def test_manifest_excludes_part(self):
        _, _, t = seg(0.0)
        plan = plan_parts(
            "d",
            [("p0", 1, self._stats(t))],
            t0=100.0,
            t1=200.0,
        )
        assert plan.units[0].pruned and plan.units[0].reason == "stats"

    def test_predicate_excludes_part(self):
        _, _, t = seg(0.0)
        plan = plan_parts(
            "d", [("p0", 1, self._stats(t))], predicate=Col("v") > 50.0
        )
        assert plan.units[0].pruned

    def test_missing_manifest_is_never_pruned(self):
        plan = plan_parts("d", [("p0", 1, None)], t0=1e9, t1=2e9)
        assert not plan.units[0].pruned

    def test_overlapping_part_stays(self):
        _, _, t = seg(0.0)
        plan = plan_parts(
            "d", [("p0", 1, self._stats(t))], t0=5.0, t1=6.0
        )
        assert not plan.units[0].pruned
        assert isinstance(plan.units[0], PartUnit)

    def test_no_predicate_keeps_all(self):
        _, _, t = seg(0.0)
        plan = plan_parts("d", [("p0", 1, self._stats(t))])
        assert plan.live_units == 1


class TestFoldTime:
    def test_fold_equivalent_to_interval_mask(self):
        _, _, t = seg(0.0)
        pred = fold_time_predicate(None, "timestamp", 3.0, 7.0)
        ts = t["timestamp"]
        expected = (ts >= 3.0) & (ts < 7.0)
        assert np.array_equal(pred.mask(t), expected)

    def test_fold_composes_with_predicate(self):
        _, _, t = seg(0.0)
        pred = fold_time_predicate(Col("v") > 4.0, "timestamp", 3.0, 9.0)
        ts, v = t["timestamp"], t["v"]
        expected = (ts >= 3.0) & (ts < 9.0) & (v > 4.0)
        assert np.array_equal(pred.mask(t), expected)

    def test_none_window_is_identity(self):
        p = Col("v") > 1.0
        assert fold_time_predicate(p, "timestamp", None, None) is p
        assert fold_time_predicate(None, "timestamp", None, None) is None
