"""The zone map prunes exactly what ``might_match`` prunes.

:class:`repro.query.ZoneMap` answers the manifest prune for every part
at once from per-column arrays; ``Predicate.might_match`` part by part
stays the definition.  The property draws random predicate trees (every
``Compare`` op, ``IsIn`` with empty and mixed-type value lists,
``And``/``Or``/``Not``) over random part lists (2- and 3-tuple stats,
parts without a manifest, missing columns, ±inf and NaN, int, float,
bool and string bounds, ints past 2**53, no parts at all) and holds the
zone-map plan's pruned set to the per-part loop's.  A second property
runs the fast executor over a zone-map plan of real parts against the
reference executor over every part.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ColumnTable, write_table
from repro.columnar.predicate import And, Compare, IsIn, Not, Or, Predicate
from repro.perf import baseline_mode
from repro.query import (
    PartUnit,
    ZoneMap,
    clear_row_group_cache,
    execute_plan,
    execute_plan_reference,
    plan_parts,
    planner,
)
from repro.storage.manifest import stats_from_meta, stats_to_meta, table_stats

COLUMNS = ["t", "a", "s", "m"]
OPS = ["==", "!=", "<", "<=", ">", ">="]

#: Values and bounds of every type a manifest or a caller may hold,
#: from a small pool so that bounds and values often coincide (the
#: constant-part prunes) or straddle 2**53 (where float64 rounds).
NUMBERS = st.one_of(
    st.sampled_from(
        [
            0, 1, -1, 0.0, -0.0, 1.0, 0.5,
            2**53, 2**53 + 1, float(2**53), -(2**53) - 1, 2**63,
            True, False,
            float("inf"), float("-inf"), float("nan"),
            np.float32(1.5), np.int64(1), np.float64(0.5),
        ]
    ),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
)
STRINGS = st.sampled_from(["", "a", "b"])
VALUES = st.one_of(NUMBERS, NUMBERS, STRINGS, st.none())


def bound(column):
    """``t`` and ``a`` mostly numeric, ``s`` strings, ``m`` anything."""
    if column == "s":
        return STRINGS
    if column == "m":
        return VALUES.filter(lambda v: v is not None)
    return st.one_of(NUMBERS, NUMBERS, NUMBERS, st.just("a"))


@st.composite
def entry(draw, column):
    lo = draw(bound(column))
    shape = draw(st.sampled_from(["none", "pair", "triple", "constant"]))
    if shape == "none":
        return None
    hi = lo if shape == "constant" else draw(bound(column))
    if shape == "pair" or draw(st.booleans()):
        return (lo, hi)
    return (lo, hi, draw(st.booleans()))


@st.composite
def part_stats(draw):
    if draw(st.integers(0, 5)) == 0:
        return None  # a part without a manifest
    cols = draw(st.lists(st.sampled_from(COLUMNS), unique=True))
    return {c: draw(entry(c)) for c in cols}


@st.composite
def listings(draw):
    stats = draw(st.lists(part_stats(), max_size=8))
    return [(f"d/part-{i:08d}.rcf", 100 + i, s) for i, s in enumerate(stats)]


def predicates(values=VALUES):
    leaf = st.one_of(
        st.builds(Compare, st.sampled_from(COLUMNS), st.sampled_from(OPS), values),
        st.builds(
            IsIn,
            st.sampled_from(COLUMNS),
            st.lists(values, max_size=3).map(tuple),
        ),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=6,
    )


def loop_pruned(parts, pred):
    """The per-part definition: the indices ``might_match`` rules out."""
    return {
        i
        for i, (_, _, stats) in enumerate(parts)
        if stats is not None and not pred.might_match(stats)
    }


@st.composite
def cases(draw):
    """A part list, and a predicate whose values are mostly the list's
    own bounds — where a prune turns on equality and exactness."""
    parts = draw(listings())
    bounds = [
        x for _, _, s in parts if s for e in s.values() if e is not None for x in e[:2]
    ]
    values = st.one_of(st.sampled_from(bounds), VALUES) if bounds else VALUES
    return parts, draw(predicates(values))


WINDOWS = st.one_of(
    st.none(), st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0))
)


@given(case=cases(), window=WINDOWS, bare=st.booleans())
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_zone_map_prunes_what_might_match_prunes(case, window, bare):
    parts, predicate = case
    if bare:
        predicate = None
    t0, t1 = window or (None, None)
    fast = plan_parts("d", ZoneMap(parts), t0, t1, predicate, time_column="t")
    loop = plan_parts("d", parts, t0, t1, predicate, time_column="t")
    assert [u.index for u in loop.units] == list(range(len(parts)))
    want = {u.index for u in loop.units if u.pruned}
    listed = [u.index for u in fast.units]
    assert listed == sorted(set(range(len(parts))) - want)
    assert fast.unlisted == len(want) == fast.pruned_units == loop.pruned_units
    assert not any(u.pruned for u in fast.units)
    for u in fast.units:
        assert (u.key, u.size, u.stats) == parts[u.index]
    if loop.scan_predicate is not None:
        assert want == loop_pruned(parts, loop.scan_predicate)


@given(case=cases())
@settings(max_examples=max(300, settings.default.max_examples), deadline=None)
def test_every_subtree_answers_as_its_own_might_match(case):
    parts, predicate = case
    zm = ZoneMap(parts)
    stack = [predicate]
    while stack:
        p = stack.pop()
        got = zm.might_match(p)
        assert got.dtype == bool and got.shape == (len(parts),)
        assert set(np.flatnonzero(~got).tolist()) == loop_pruned(parts, p)
        stack += [getattr(p, k) for k in ("left", "right", "inner") if hasattr(p, k)]


#: Column ``a`` holds bounds float64 compares exactly, so it is
#: answered from arrays; ``b`` holds an int past 2**53, so every leaf
#: on it falls back to the per-part ``might_match``.
EDGE_PARTS = [
    ("exact", 1, {"a": (1.0, 1.0), "b": (1, 1)}),
    ("inexact", 1, {"a": (1.0, 1.0, False), "b": (2**53, 2**53)}),
    ("int", 1, {"a": (1, 1), "b": (2**53 + 1, 2**53 + 1)}),
    ("rounded", 1, {"a": (float(2**53), float(2**53)), "b": (0.5, 2.0**53)}),
    ("infinite", 1, {"a": (float("-inf"), float("inf"))}),
    ("nan", 1, {"a": (float("nan"), 3.0)}),
    ("missing", 1, {"c": (0, 1)}),
    ("none", 1, {"a": None, "b": None}),
    ("no-manifest", 1, None),
]
EDGE_PREDICATES = [
    Compare(col, op, v)
    for col in ("a", "b")
    for op in OPS
    for v in (1.0, 1, True, 2**53, 2**53 + 1, float(2**53), float("inf"), "a", None)
] + [
    Not(Compare(col, "==", v))
    for col in ("a", "b")
    for v in (1.0, 2**53, 2**53 + 1)
] + [
    Not(Compare("a", "!=", 1.0)),
    IsIn("a", ()),
    IsIn("a", (0.5, 3.0)),
    IsIn("b", (float(2**53),)),
    IsIn("a", (0.5, "a")),
    IsIn("a", (float("nan"),)),
]


@pytest.mark.parametrize("predicate", EDGE_PREDICATES, ids=repr)
@pytest.mark.parametrize("mixed", [False, True], ids=["arrays", "fallback"])
def test_edge_bounds_prune_as_might_match(predicate, mixed):
    # Constant parts with exact and inexact bounds, ints past 2**53
    # beside the float they round to, infinities, NaN, and parts
    # without the column or a manifest — for the leaves whose answer
    # turns on exactly these.  A part with string bounds in the column
    # sends every leaf on it to the per-part fallback.
    parts = EDGE_PARTS + [("strings", 1, {"a": ("a", "b")})] * mixed
    got = ZoneMap(parts).might_match(predicate)
    assert set(np.flatnonzero(~got).tolist()) == loop_pruned(parts, predicate)


def test_baseline_mode_plans_every_part_part_by_part():
    parts = [
        (f"p{i}", 1, {"t": (float(i), float(i) + 0.5)}) for i in range(4)
    ]
    with baseline_mode():
        plan = plan_parts("d", ZoneMap(parts), 2.0, 3.0, time_column="t")
    assert [u.index for u in plan.units] == [0, 1, 2, 3]
    assert [u.pruned for u in plan.units] == [True, True, False, True]
    assert plan.unlisted == 0 and plan.pruned_units == 3


class OwnPrune(Predicate):
    """A node the zone map does not know: answered by its own
    ``might_match``, part by part."""

    def mask(self, table):
        return np.ones(table.num_rows, dtype=bool)

    def might_match(self, stats):
        return "keep" in stats

    def columns(self):
        return set()


def test_unknown_nodes_and_string_leaves_fall_back_per_part():
    parts = [("p0", 1, {"keep": None}), ("p1", 1, {}), ("p2", 1, None)]
    assert ZoneMap(parts).might_match(OwnPrune()).tolist() == [True, False, True]
    parts = [("p0", 1, {"s": ("a", "c")}), ("p1", 1, {"s": ("d", "f")})]
    assert ZoneMap(parts).might_match(Compare("s", "==", "e")).tolist() == [
        False,
        True,
    ]


def test_the_fast_path_asks_no_part_and_builds_no_pruned_unit():
    parts = [(f"p{i}", 1, {"t": (float(i), float(i) + 0.5)}) for i in range(31)]
    zm = ZoneMap(parts)
    with mock.patch.object(
        Compare, "might_match", side_effect=AssertionError("per-part prune")
    ), mock.patch.object(planner, "PartUnit", wraps=PartUnit) as built:
        plan = plan_parts("d", zm, 7.0, 9.0, time_column="t")
    assert [u.index for u in plan.units] == [7, 8]
    assert plan.unlisted == 29
    assert built.call_count == 2


# -- the fast executor over a zone-map plan ----------------------------------


@st.composite
def stored_parts(draw):
    """Small real parts: sorted times, an int column with NaN-free
    values, a float column that may hold NaN, a string column."""
    n_parts = draw(st.integers(0, 6))
    tables = []
    t = 0.0
    for _ in range(n_parts):
        n = draw(st.integers(1, 12))
        step = draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]))
        ts = t + np.arange(n) * step
        t = float(ts[-1]) + draw(st.sampled_from([0.0, 1.0, 5.0]))
        a = np.array(draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)))
        f = np.array(
            draw(
                st.lists(
                    st.sampled_from([0.0, 1.5, -2.0, float("nan"), 4.0]),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        s = np.array(
            draw(st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)),
            dtype=object,
        )
        tables.append(ColumnTable({"t": ts, "a": a, "f": f, "s": s}))
    return tables


def stored_predicates():
    leaf = st.one_of(
        st.builds(
            Compare,
            st.sampled_from(["t", "a", "f"]),
            st.sampled_from(OPS),
            st.sampled_from([-2, 0, 1.5, 3, 4.0, float("inf"), "a"]),
        ),
        st.builds(
            IsIn,
            st.sampled_from(["a", "f", "s"]),
            st.lists(st.sampled_from([0, 1.5, -2, 4, "b"]), max_size=3).map(tuple),
        ),
        st.builds(
            Compare, st.just("s"), st.sampled_from(OPS), st.sampled_from(["a", "b"])
        ),
    )
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
        ),
        max_leaves=4,
    )


def _safe(predicate) -> bool:
    """Whether the exact mask is defined: a numeric column compared
    with a string, or a string column ordered against a number, raises
    in numpy for both executors alike, which is not what this tests."""
    if isinstance(predicate, (And, Or)):
        return _safe(predicate.left) and _safe(predicate.right)
    if isinstance(predicate, Not):
        return _safe(predicate.inner)
    if isinstance(predicate, Compare):
        return (predicate.column == "s") == isinstance(predicate.value, str)
    return all((predicate.column == "s") == isinstance(v, str) for v in predicate.values)


@given(
    tables=stored_parts(),
    predicate=st.one_of(st.none(), stored_predicates()),
    window=st.one_of(
        st.none(), st.tuples(st.floats(-1.0, 40.0), st.floats(-1.0, 40.0))
    ),
    columns=st.one_of(st.none(), st.just(["a", "s"])),
)
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
def test_fast_executor_over_a_zone_map_plan_equals_the_reference(
    tables, predicate, window, columns
):
    if predicate is not None and not _safe(predicate):
        return
    t0, t1 = window or (None, None)
    blobs = [write_table(t, row_group_size=4) for t in tables]
    parts = [
        (f"p{i}", len(b), stats_from_meta(stats_to_meta(table_stats(t))))
        for i, (t, b) in enumerate(zip(tables, blobs))
    ]
    if columns is None:
        columns = ["t", "a", "f", "s"]
    clear_row_group_cache()
    try:
        fast = plan_parts("d", ZoneMap(parts), t0, t1, predicate, columns, "t")
        for unit in fast.units:
            unit.blob = blobs[unit.index]
        ref = plan_parts("d", parts, t0, t1, predicate, columns, "t")
        for unit, blob in zip(ref.units, blobs):
            unit.blob = blob
        got, want = execute_plan(fast), execute_plan_reference(ref)
    finally:
        clear_row_group_cache()
    assert got.column_names == want.column_names
    for name in got.column_names:
        a, b = got[name], want[name]
        assert a.tolist() == b.tolist() or (
            a.dtype.kind == "f"
            and np.array_equal(a, b, equal_nan=True)
        )


@pytest.mark.parametrize("n", [0, 1, 31])
def test_no_predicate_keeps_every_part(n):
    parts = [(f"p{i}", 1, None if i % 2 else {"t": (0.0, 1.0)}) for i in range(n)]
    plan = plan_parts("d", ZoneMap(parts))
    assert [u.index for u in plan.units] == list(range(n))
    assert plan.unlisted == 0
