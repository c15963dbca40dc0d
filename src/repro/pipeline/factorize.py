"""Fast column factorization for relational operators.

``group_by_agg``/``pivot``/``hash_join`` all start by turning key columns
into dense integer codes.  The original implementation walked object
columns row by row through a Python dict — the dominant cost of the
Silver/Gold stages once telemetry volume grows.  This module provides a
vectorized object-column path (per-row hashes + ``np.unique``) that
reproduces the reference first-appearance code order exactly, with a
guarded fallback to the row loop for exotic contents, and a counting
pass for narrow-range integer columns.

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


# -- fast paths ---------------------------------------------------------------


_NONE_HASH = hash(None)


def _object_hashes(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(filled column, int64 per-row hashes)`` with ``None`` -> ``""``.

    Raises ``TypeError`` on unhashable items (caller falls back to the
    reference loop).  The reference treats ``None`` as the key ``""``, so
    ``None`` rows get ``hash("")`` and a ``""`` entry in ``filled``.
    """
    h = np.fromiter(map(hash, col), dtype=np.int64, count=col.size)
    filled = col
    candidates = np.flatnonzero(h == _NONE_HASH)
    if candidates.size:
        none_rows = [i for i in candidates.tolist() if col[i] is None]
        if none_rows:
            filled = col.copy()
            filled[none_rows] = ""
            h[none_rows] = hash("")
    return filled, h


def _object_codes(
    filled: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Factorize by hash, re-ranked to first-appearance code order."""
    _, first_idx, inv = np.unique(h, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size, dtype=np.int64)
    codes = rank[inv.astype(np.int64)]
    uniq = filled[first_idx[order]]
    return codes, uniq


def _object_matches(
    filled: np.ndarray, codes: np.ndarray, uniq: np.ndarray
) -> bool:
    """True iff every row equals its assigned unique (collision guard)."""
    if uniq.size == 0 or codes.size != filled.size:
        return codes.size == filled.size == 0
    eq = filled == uniq[codes]
    return (
        isinstance(eq, np.ndarray)
        and eq.dtype == np.bool_
        and bool(eq.all())
    )


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
    """(codes int64, uniques) — vectorized.

    Byte-for-byte equivalent to :func:`factorize_reference` (verified by
    ``tests/pipeline/test_factorize.py``).  Object columns factorize
    through per-row hashes with an equality check against the assigned
    uniques — a hash collision (or exotic ``__eq__``) falls back to the
    reference loop.  Under ``baseline_mode()`` every call is the
    reference loop.
    """
    if baseline.active():
        return factorize_reference(col)
    if col.dtype != object:
        return _numeric_factorize(col)
    if col.size == 0:
        return factorize_reference(col)
    try:
        filled, h = _object_hashes(col)
        value = _object_codes(filled, h)
        if not _object_matches(filled, *value):
            raise ValueError("hash collision")
        return value
    except (TypeError, ValueError):
        return factorize_reference(col)
