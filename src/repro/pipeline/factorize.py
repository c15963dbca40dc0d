"""Fast column factorization for relational operators.

``group_by_agg``/``pivot``/``hash_join`` all start by turning key columns
into dense integer codes.  Narrow-range integer columns take a counting
pass instead of the reference's sort; every other column takes the
reference itself, object columns its row loop (no workload groups by
an object column).

``factorize_reference`` preserves the original row-loop semantics and is
used by tests (and the benchmark baseline) as the ground truth.
"""

from __future__ import annotations

import numpy as np

from repro.perf import baseline

__all__ = ["factorize", "factorize_reference"]


# -- reference implementation -------------------------------------------------


def factorize_reference(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes int64, uniques) — original row-loop semantics.

    Object columns: codes in first-appearance order; ``None`` keys as
    ``""`` (colliding with a real empty string, as before).  Other
    dtypes: ``np.unique`` sorted order.
    """
    if col.dtype == object:
        items = col.tolist()
        seen: dict[object, int] = {}
        codes = np.empty(len(items), dtype=np.int64)
        for i, x in enumerate(items):
            key = "" if x is None else x
            code = seen.get(key)
            if code is None:
                code = len(seen)
                seen[key] = code
            codes[i] = code
        uniq = np.empty(len(seen), dtype=object)
        for value, code in seen.items():
            uniq[code] = value
        return codes, uniq
    uniq, codes = np.unique(col, return_inverse=True)
    return codes.astype(np.int64), uniq


# -- fast path ----------------------------------------------------------------


#: Widest value range an integer column may span and still take the
#: counting path: the O(range) tables must stay small next to the
#: O(n log n) sort they replace.
_COUNT_MAX_SPAN = 1 << 16


def _int_factorize(col: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Sort-free ``(codes, uniques)`` for narrow-range integer columns.

    ``np.unique(col, return_inverse=True)`` yields the sorted distinct
    values and each row's rank among them; for integers spanning a small
    range the same arrays fall out of one counting pass — presence mask
    -> sorted uniques, its cumsum -> rank lookup table — in O(n + range)
    instead of O(n log n).  Returns ``None`` when the range is too wide
    to table (caller sorts as before).
    """
    mn = int(col.min())
    mx = int(col.max())
    span = mx - mn + 1
    if span > min(max(4 * col.size, 1024), _COUNT_MAX_SPAN):
        return None
    if mn < -(2**62) or mx > 2**62:  # keep the int64 shift overflow-free
        return None
    shifted = col.astype(np.int64)
    shifted -= mn
    present = np.zeros(span, dtype=bool)
    present[shifted] = True
    rank = np.cumsum(present)
    rank -= 1
    codes = rank[shifted]
    uniq = np.flatnonzero(present)
    uniq += mn
    return codes, uniq.astype(col.dtype, copy=False)


def _numeric_factorize(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes int64, uniques) for a non-object column, counting-pass
    when possible, sort otherwise — identical output either way."""
    if col.dtype.kind in "iu" and col.size:
        fast = _int_factorize(col)
        if fast is not None:
            return fast
    uniq, codes = np.unique(col, return_inverse=True)
    return codes.astype(np.int64), uniq


def factorize(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes int64, uniques) — equal to :func:`factorize_reference`
    (verified by ``tests/pipeline/test_factorize.py``).  Integer
    columns take the counting pass where their range allows; object
    columns, and every call under ``baseline_mode()``, take the
    reference.
    """
    if baseline.active() or col.dtype == object:
        return factorize_reference(col)
    return _numeric_factorize(col)
