"""Unit tests for ColumnTable."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable


def make_table():
    return ColumnTable(
        {
            "t": np.array([0.0, 1.0, 2.0, 3.0]),
            "node": np.array([0, 1, 0, 1]),
            "user": ["alice", "bob", "alice", None],
        }
    )


class TestConstruction:
    def test_shape(self):
        t = make_table()
        assert t.num_rows == 4
        assert t.num_columns == 3
        assert t.column_names == ["t", "node", "user"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ColumnTable({"a": np.zeros(2), "b": np.zeros(3)})

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            ColumnTable({"a": np.zeros((2, 2))})

    def test_empty_table(self):
        t = ColumnTable({})
        assert t.num_rows == 0 and t.num_columns == 0

    def test_string_column_normalized(self):
        t = make_table()
        assert t.is_string("user")
        assert not t.is_string("t")
        assert t["user"][3] is None

    def test_unknown_column_keyerror_lists_names(self):
        with pytest.raises(KeyError, match="node"):
            make_table()["missing"]


class TestTransforms:
    def test_select_projects_and_orders(self):
        t = make_table().select(["user", "t"])
        assert t.column_names == ["user", "t"]

    def test_filter(self):
        t = make_table().filter(np.array([True, False, True, False]))
        assert t.num_rows == 2
        np.testing.assert_array_equal(t["node"], [0, 0])

    def test_filter_mask_length_checked(self):
        with pytest.raises(ValueError):
            make_table().filter(np.array([True]))

    def test_take(self):
        t = make_table().take(np.array([3, 0]))
        np.testing.assert_array_equal(t["t"], [3.0, 0.0])

    def test_slice(self):
        t = make_table().slice(1, 3)
        np.testing.assert_array_equal(t["t"], [1.0, 2.0])

    def test_with_column_adds_and_replaces(self):
        t = make_table().with_column("x", np.ones(4))
        assert "x" in t
        t2 = t.with_column("x", np.zeros(4))
        assert t2["x"].sum() == 0

    def test_drop(self):
        t = make_table().drop(["user"])
        assert t.column_names == ["t", "node"]

    def test_rename(self):
        t = make_table().rename({"t": "timestamp"})
        assert "timestamp" in t and "t" not in t

    def test_concat_roundtrip(self):
        t = make_table()
        c = ColumnTable.concat([t.slice(0, 2), t.slice(2, 4)])
        assert c == t

    def test_concat_schema_mismatch(self):
        with pytest.raises(ValueError):
            ColumnTable.concat(
                [ColumnTable({"a": [1]}), ColumnTable({"b": [1]})]
            )

    def test_concat_empty_list(self):
        assert ColumnTable.concat([]).num_rows == 0

    def test_sort_by_numeric(self):
        t = ColumnTable({"x": [3.0, 1.0, 2.0]}).sort_by("x")
        np.testing.assert_array_equal(t["x"], [1.0, 2.0, 3.0])

    def test_sort_by_string(self):
        t = ColumnTable({"s": ["b", "a", "c"]}).sort_by("s")
        assert t["s"].tolist() == ["a", "b", "c"]

    def test_head(self):
        assert make_table().head(2).num_rows == 2
        assert make_table().head(100).num_rows == 4


class TestEqualityAndMisc:
    def test_equality_with_nan(self):
        a = ColumnTable({"x": [1.0, np.nan]})
        b = ColumnTable({"x": [1.0, np.nan]})
        assert a == b

    def test_inequality_different_values(self):
        assert ColumnTable({"x": [1.0]}) != ColumnTable({"x": [2.0]})

    def test_nbytes_positive(self):
        assert make_table().nbytes > 0

    def test_to_pylist(self):
        rows = make_table().to_pylist()
        assert rows[0] == {"t": 0.0, "node": 0, "user": "alice"}

    def test_repr(self):
        assert "4 rows" in repr(make_table())


# -- derivations skip re-normalization; the public constructor is the oracle --

CELLS = {
    np.int64: st.integers(-5, 5),
    np.int32: st.integers(-5, 5),
    np.float64: st.sampled_from([0.5, -1.0, float("nan")]),
    object: st.sampled_from(["a", "bb", None]),
}


@st.composite
def tables(draw, kinds=None):
    """A random table (possibly zero rows or zero columns) and the kind
    of each column; ``kinds`` forces the schema for a concat partner."""
    n = draw(st.integers(0, 6))
    if kinds is None:
        kinds = draw(st.lists(st.sampled_from(list(CELLS)), max_size=4))
    data = {}
    for i, kind in enumerate(kinds):
        cells = draw(st.lists(CELLS[kind], min_size=n, max_size=n))
        data[f"c{i}"] = np.array(cells, dtype=kind)
    return ColumnTable(data), kinds


def assert_same(derived, columns):
    """``derived`` is exactly what the checking constructor builds from
    the old per-derivation formula."""
    expected = ColumnTable(columns)
    assert derived.column_names == expected.column_names
    assert derived.num_rows == expected.num_rows
    assert len(derived) == expected.num_rows
    for name in expected.column_names:
        assert derived[name].dtype == expected[name].dtype
        assert derived[name].ndim == 1
    assert derived == expected


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_every_derivation_equals_the_public_constructor(data):
    t, kinds = data.draw(tables())
    cols, n, names = t.columns(), t.num_rows, t.column_names

    mask = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    assert_same(t.filter(mask), {k: c[mask] for k, c in cols.items()})

    index = np.array(
        data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=8 if n else 0)),
        dtype=np.int64,
    )
    assert_same(t.take(index), {k: c[index] for k, c in cols.items()})

    lo, hi = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    assert_same(t.slice(lo, hi), {k: c[lo:hi] for k, c in cols.items()})
    assert_same(t.head(lo), {k: c[:lo] for k, c in cols.items()})

    subset = data.draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    assert_same(t.select(subset), {k: cols[k] for k in subset})
    assert_same(t.drop(subset), {k: c for k, c in cols.items() if k not in subset})
    mapping = {k: k.upper() for k in subset}
    assert_same(t.rename(mapping), {mapping.get(k, k): c for k, c in cols.items()})

    # concat: a same-schema partner, then one whose dtypes differ
    # (int + float promotes, number + string normalizes to strings).
    for partner_kinds in (kinds, data.draw(st.permutations(kinds))):
        u, _ = data.draw(tables(kinds=partner_kinds))
        parts = [p for p in (t, u) if p.num_rows]
        assert_same(
            ColumnTable.concat([t, u]),
            {k: np.concatenate([p[k] for p in parts]) for k in names} if parts else {},
        )


def test_take_rejects_non_1d_indices():
    with pytest.raises(ValueError):
        make_table().take(np.array([[0, 1]]))
    with pytest.raises(ValueError):
        make_table().take(2)
