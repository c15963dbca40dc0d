"""``factorize`` must be indistinguishable from the reference.

``factorize`` is the inner loop of pivot/group-by.  Its one fast path
counts narrow integer ranges; float columns take the reference's sort
and object columns its dict walk.  Every result — codes and
first-appearance vocabulary — must match the reference exactly, and the
object-column cases pin that those columns take the reference path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import baseline_mode
from repro.pipeline import factorize as fz


def assert_same(result, reference, float_ok=False):
    codes, uniq = result
    ref_codes, ref_uniq = reference
    assert codes.dtype == ref_codes.dtype
    assert list(codes) == list(ref_codes)
    if float_ok and getattr(ref_uniq, "dtype", None) is not None and (
        ref_uniq.dtype.kind == "f"
    ):
        assert np.array_equal(uniq, ref_uniq, equal_nan=True)
    else:
        assert list(uniq) == list(ref_uniq)


strings = st.text(
    alphabet=st.characters(codec="utf-8"), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(strings, st.none()), max_size=40))
def test_object_matches_reference(values):
    col = np.array(values, dtype=object)
    assert_same(fz.factorize(col), fz.factorize_reference(col))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=40
    )
)
def test_float_matches_reference(values):
    col = np.array(values, dtype=np.float64)
    assert_same(fz.factorize(col), fz.factorize_reference(col), float_ok=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), max_size=40))
def test_int_matches_reference(values):
    col = np.array(values, dtype=np.int64)
    assert_same(fz.factorize(col), fz.factorize_reference(col))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(strings, st.none()), min_size=1, max_size=30))
def test_cache_hit_equals_cold(values):
    """A repeat call on an equal column (a memo hit, while factorize had
    a memo) answers what the first call and the reference do."""
    col = np.array(values, dtype=object)
    cold = fz.factorize(col)
    hot = fz.factorize(np.array(values, dtype=object))
    assert_same(hot, cold)
    assert_same(hot, fz.factorize_reference(col))


def test_roundtrip_reconstruction():
    col = np.array(["b", None, "a", "b", "", "a\x00b", None], dtype=object)
    codes, uniq = fz.factorize(col)
    rebuilt = uniq[codes]
    expected = np.array(["b", "", "a", "b", "", "a\x00b", ""], dtype=object)
    assert list(rebuilt) == list(expected)


def test_tricky_strings():
    cases = [
        ["", None],
        ["a\x00", "a"],
        ["ñ", "n", "ñ"],
        ["0", 0.0, "0.0"],  # mixed types
    ]
    for values in cases:
        col = np.array(values, dtype=object)
        assert_same(fz.factorize(col), fz.factorize_reference(col))


def test_hashable_non_string_contents():
    col = np.empty(4, dtype=object)
    col[0], col[1], col[2], col[3] = (1, 2), (1, 2), (3,), (1, 2)
    assert_same(fz.factorize(col), fz.factorize_reference(col))


def test_equal_keys_of_another_type_keep_their_own_vocabulary():
    """Each column's uniques are its own first-seen values.  ``1`` and
    ``1.0`` (or ``True`` and ``1``) hash and compare equal, so a memo
    keyed by row hashes used to hand the second column the first one's
    vocabulary."""
    for first, second in (
        ([1, 2, 1], [1.0, 2, 1.0]),
        ([True, False], [1, 0]),
    ):
        fz.factorize(np.array(first, dtype=object))
        col = np.array(second, dtype=object)
        _, uniq = fz.factorize(col)
        _, ref_uniq = fz.factorize_reference(col)
        assert [(type(u), u) for u in uniq] == [(type(u), u) for u in ref_uniq]


def test_reference_mode_routes_everything(monkeypatch):
    col = np.array(["x", "y", "x"], dtype=object)
    calls = []
    reference = fz.factorize_reference

    def spy(arg):
        calls.append(arg)
        return reference(arg)

    monkeypatch.setattr(fz, "factorize_reference", spy)
    with baseline_mode():
        codes, uniq = fz.factorize(col)
    assert len(calls) == 1 and calls[0] is col
    assert list(codes) == [0, 1, 0]
    assert list(uniq) == ["x", "y"]


def test_object_columns_take_the_reference(monkeypatch):
    col = np.array(["x", None, "x"], dtype=object)
    calls = []
    reference = fz.factorize_reference

    def spy(arg):
        calls.append(arg)
        return reference(arg)

    monkeypatch.setattr(fz, "factorize_reference", spy)
    codes, uniq = fz.factorize(col)
    assert len(calls) == 1 and calls[0] is col
    assert list(codes) == [0, 1, 0]
    assert list(uniq) == ["x", ""]
    fz.factorize(np.array([3, 1, 3]))  # the counting pass: no reference
    assert len(calls) == 1
