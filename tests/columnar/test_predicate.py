"""Unit + property tests for the predicate algebra.

Soundness is the key invariant: might_match(stats)==False must imply the
exact mask is empty for any data consistent with those stats.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.columnar import And, Col, ColumnTable, Not, Or
from repro.columnar.predicate import Compare, IsIn


def make_table():
    return ColumnTable(
        {
            "x": np.array([1.0, 2.0, 3.0, 4.0]),
            "node": np.array([0, 0, 1, 1]),
            "user": ["a", "b", "a", "c"],
        }
    )


def stats_of(table):
    return {
        "x": (float(table["x"].min()), float(table["x"].max())),
        "node": (float(table["node"].min()), float(table["node"].max())),
        "user": ("a", "c"),
    }


class TestCompare:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("==", [False, True, False, False]),
            ("!=", [True, False, True, True]),
            ("<", [True, False, False, False]),
            ("<=", [True, True, False, False]),
            (">", [False, False, True, True]),
            (">=", [False, True, True, True]),
        ],
    )
    def test_mask_ops(self, op, expected):
        mask = Compare("x", op, 2.0).mask(make_table())
        assert mask.tolist() == expected

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError):
            Compare("x", "~", 1)

    def test_string_compare(self):
        mask = (Col("user") == "a").mask(make_table())
        assert mask.tolist() == [True, False, True, False]

    def test_might_match_prunes_out_of_range(self):
        stats = stats_of(make_table())
        assert not (Col("x") > 10.0).might_match(stats)
        assert not (Col("x") < 1.0).might_match(stats)
        assert (Col("x") >= 4.0).might_match(stats)

    def test_missing_stats_never_prunes(self):
        assert (Col("y") > 1e9).might_match({"x": (0, 1)})
        assert (Col("x") > 1e9).might_match({"x": None})


class TestCombinators:
    def test_and_or_not_masks(self):
        t = make_table()
        p = (Col("x") > 1.0) & (Col("node") == 1)
        assert p.mask(t).tolist() == [False, False, True, True]
        q = (Col("x") == 1.0) | (Col("user") == "c")
        assert q.mask(t).tolist() == [True, False, False, True]
        assert (~q).mask(t).tolist() == [False, True, True, False]

    def test_and_prunes_if_either_side_prunes(self):
        stats = stats_of(make_table())
        p = (Col("x") > 100.0) & (Col("node") == 0)
        assert not p.might_match(stats)

    def test_or_requires_both_sides_pruned(self):
        stats = stats_of(make_table())
        p = (Col("x") > 100.0) | (Col("node") == 0)
        assert p.might_match(stats)

    def test_not_of_constant_chunk_prunes(self):
        p = ~(Col("x") == 5.0)
        assert not p.might_match({"x": (5.0, 5.0)})
        assert p.might_match({"x": (4.0, 5.0)})

    def test_columns_collected(self):
        p = (Col("x") > 1) & ((Col("node") == 0) | ~(Col("user") == "a"))
        assert p.columns() == {"x", "node", "user"}


class TestIsInAndBetween:
    def test_isin_numeric(self):
        mask = Col("node").isin([1, 7]).mask(make_table())
        assert mask.tolist() == [False, False, True, True]

    def test_isin_string(self):
        mask = Col("user").isin(["a"]).mask(make_table())
        assert mask.tolist() == [True, False, True, False]

    def test_isin_prunes(self):
        assert not IsIn("x", (10.0, 20.0)).might_match({"x": (0.0, 5.0)})
        assert IsIn("x", (3.0,)).might_match({"x": (0.0, 5.0)})

    def test_between(self):
        mask = Col("x").between(2.0, 3.0).mask(make_table())
        assert mask.tolist() == [False, True, True, False]

    @given(
        col=st.sampled_from(
            [np.int64, np.int32, np.uint8, np.uint64, np.float64, np.float32, np.bool_]
        ).flatmap(
            lambda dt: hnp.arrays(
                dt,
                st.integers(0, 40),
                elements=(
                    st.one_of(
                        st.just(float("nan")), st.integers(-4, 4).map(float),
                        st.floats(-4, 4, width=32),
                    )
                    if np.dtype(dt).kind == "f"
                    else None
                ),
            )
        ),
        values=st.lists(
            st.one_of(
                st.integers(-4, 260),
                st.integers(2**53, 2**53 + 4),
                st.floats(-4, 4, width=32),
                st.just(float("nan")),
                st.booleans(),
            ),
            max_size=12,  # both sides of the equality/np.isin switch
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_isin_numeric_is_np_isin(self, col, values):
        """The short-list equality path answers exactly like np.isin:
        int/float promotion, NaN never matches, empty list, bool columns."""
        got = IsIn("c", tuple(values)).mask_array(col)
        want = np.isin(col, np.asarray(values))
        assert got.dtype == want.dtype == np.bool_
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()


class TestSoundness:
    """Pruning must never discard a chunk containing matching rows."""

    @given(
        data=hnp.arrays(
            np.float64, st.integers(1, 50), elements=st.floats(-100, 100)
        ),
        threshold=st.floats(-150, 150),
        op=st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    )
    @settings(max_examples=120, deadline=None)
    def test_compare_soundness(self, data, threshold, op):
        table = ColumnTable({"x": data})
        stats = {"x": (float(data.min()), float(data.max()))}
        pred = Compare("x", op, threshold)
        if not pred.might_match(stats):
            assert not pred.mask(table).any()

    @given(
        data=hnp.arrays(
            np.float64, st.integers(1, 50), elements=st.floats(-100, 100)
        ),
        a=st.floats(-150, 150),
        b=st.floats(-150, 150),
    )
    @settings(max_examples=80, deadline=None)
    def test_compound_soundness(self, data, a, b):
        table = ColumnTable({"x": data})
        stats = {"x": (float(data.min()), float(data.max()))}
        for pred in [
            (Col("x") > a) & (Col("x") < b),
            (Col("x") > a) | (Col("x") < b),
            Col("x").between(min(a, b), max(a, b)),
            ~(Col("x") == a),
        ]:
            if not pred.might_match(stats):
                assert not pred.mask(table).any()
