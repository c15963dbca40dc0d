"""The cached factorizer must be indistinguishable from the reference.

``factorize`` is the hot inner loop of pivot/group-by; its fast path
hashes object columns and memoizes codes by content digest.  Every
result — codes and first-appearance vocabulary — must match the
reference dict-walk implementation exactly.
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
    fz.clear_cache()
    assert_same(fz.factorize(col), fz.factorize_reference(col))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=True, allow_infinity=True, width=64), max_size=40
    )
)
def test_float_matches_reference(values):
    col = np.array(values, dtype=np.float64)
    fz.clear_cache()
    assert_same(fz.factorize(col), fz.factorize_reference(col), float_ok=True)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), max_size=40))
def test_int_matches_reference(values):
    col = np.array(values, dtype=np.int64)
    fz.clear_cache()
    assert_same(fz.factorize(col), fz.factorize_reference(col))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(strings, st.none()), min_size=1, max_size=30))
def test_cache_hit_equals_cold(values):
    col = np.array(values, dtype=object)
    fz.clear_cache()
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
        ["0", 0.0, "0.0"],  # mixed types, hash(0.0) == 0 vs salted str hashes
    ]
    for values in cases:
        col = np.array(values, dtype=object)
        fz.clear_cache()
        assert_same(fz.factorize(col), fz.factorize_reference(col))


def test_hashable_non_string_contents():
    col = np.empty(4, dtype=object)
    col[0], col[1], col[2], col[3] = (1, 2), (1, 2), (3,), (1, 2)
    fz.clear_cache()
    assert_same(fz.factorize(col), fz.factorize_reference(col))


def test_cached_arrays_are_readonly():
    fz.clear_cache()
    col = np.array(["r", "s", "r"], dtype=object)
    fz.factorize(col)
    codes, uniq = fz.factorize(np.array(["r", "s", "r"], dtype=object))
    with pytest.raises(ValueError):
        codes[0] = 9


def test_cache_stats_and_clear():
    fz.clear_cache()
    col = np.arange(4096)  # above the numeric memo's size floor
    fz.factorize(col)
    fz.factorize(np.arange(4096))
    stats = fz.cache_stats()
    assert stats["hits"] >= 1 and stats["misses"] >= 1
    fz.clear_cache()
    assert fz.cache_stats()["entries"] == 0


def test_small_numeric_columns_skip_memo():
    """Below the size floor the memo would cost more than it saves."""
    fz.clear_cache()
    fz.factorize(np.arange(16))
    fz.factorize(np.arange(16))
    assert fz.cache_stats()["entries"] == 0


def test_reference_mode_routes_everything():
    col = np.array(["x", "y", "x"], dtype=object)
    with baseline_mode():
        fz.clear_cache()
        codes, uniq = fz.factorize(col)
        assert fz.cache_stats()["misses"] == 0  # memo fully bypassed
    assert list(codes) == [0, 1, 0]
    assert list(uniq) == ["x", "y"]
