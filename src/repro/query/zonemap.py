"""Zone maps: a part list's manifest bounds as per-column arrays.

The manifest prune (pruning level zero, DESIGN.md §11) used to ask
:meth:`~repro.columnar.predicate.Predicate.might_match` once per part,
so a query paid for every part of its dataset before it read any.  A
:class:`ZoneMap` holds the same bounds column by column — per part,
``lo``, ``hi``, ``exact`` and whether it has an entry at all — and
evaluates a predicate tree over all parts in a few numpy operations:
``Compare`` and ``IsIn`` leaves, ``And``/``Or``, and the ``Not(==)``
constant-part prune.

``might_match`` stays the definition of pruning.  Arrays answer a leaf
only where float64 compares exactly as Python does: every bound of the
column and the leaf's value(s) are plain numbers, ints no larger than
2**53 in magnitude (so each converts to float64 without rounding).  Any
other leaf — a string column, a string or ``None`` value, bounds of
mixed types, a subclassed node — is answered part by part by its own
``might_match``.  ``tests/query/test_zonemap.py`` holds the two to the
same pruned set over random predicate trees and part lists.
"""

from __future__ import annotations

from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.columnar.predicate import And, Compare, IsIn, Not, Or, Predicate

__all__ = ["ZoneMap"]

#: Largest int magnitude every smaller one of which float64 holds exactly.
_EXACT_INT = 1 << 53

_FLOATS = (float, np.float64, np.float32, np.float16)


def _as_float(x: Any) -> float | None:
    """``x`` as a float64 that compares with every other such value as
    ``x`` itself would, or None when there is no such float."""
    if isinstance(x, _FLOATS):
        return float(x)
    if isinstance(x, (int, np.integer)):  # bool included, as Python does
        return float(x) if -_EXACT_INT <= x <= _EXACT_INT else None
    return None


def _or_kept(m: np.ndarray, kept: np.ndarray | None) -> np.ndarray:
    """``m`` with every part ``kept`` marks set to maybe."""
    return m if kept is None else m | kept


def _flags_or_none(flags: list[bool]) -> np.ndarray | None:
    """``flags`` as an array, or None when none is set, so that
    :func:`_or_kept` has nothing to add."""
    return np.array(flags, dtype=bool) if any(flags) else None


class _Zone:
    """One column's bounds across the parts, as arrays."""

    __slots__ = ("lo", "hi", "exact", "missing")

    def __init__(self, lo, hi, exact, has) -> None:
        self.lo = np.array(lo, dtype=np.float64)
        self.hi = np.array(hi, dtype=np.float64)
        self.exact = np.array(exact, dtype=bool)
        #: Parts with no manifest entry for the column (always maybe),
        #: or None when every part has one.
        self.missing = _flags_or_none([not h for h in has])


def _build_zone(stats: Sequence[Mapping | None], column: str) -> _Zone | None:
    """The column's zone, or None when some entry is not a numeric
    ``(lo, hi)`` / ``(lo, hi, exact)`` pair of :func:`_as_float` bounds."""
    n = len(stats)
    lo, hi = [0.0] * n, [0.0] * n
    exact, has = [True] * n, [False] * n
    for i, s in enumerate(stats):
        entry = None if s is None else s.get(column)
        if entry is None:
            continue
        if len(entry) not in (2, 3):
            return None
        a, b = _as_float(entry[0]), _as_float(entry[1])
        if a is None or b is None:
            return None
        lo[i], hi[i], has[i] = a, b, True
        if len(entry) == 3:
            exact[i] = bool(entry[2])
    return _Zone(lo, hi, exact, has)


class ZoneMap:
    """Manifest bounds of a fixed list of ``(key, size, stats)`` parts
    (``stats`` None for a part without a manifest), evaluated column at
    a time.  A column's arrays are built on first ask and kept as long
    as the map; a map is never updated, so build a new one when the
    part list changes (:class:`repro.storage.parts.Listing` does, once
    per store stamp)."""

    def __init__(self, parts: Sequence[tuple[str, int, Mapping | None]]) -> None:
        self.parts = tuple(parts)
        self._stats = [stats for _, _, stats in self.parts]
        self._no_manifest = _flags_or_none([s is None for s in self._stats])
        self._zones: dict[str, _Zone | None] = {}

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[tuple[str, int, Mapping | None]]:
        return iter(self.parts)

    def might_match(self, predicate: Predicate) -> np.ndarray:
        """Per part, False exactly where ``predicate.might_match`` of its
        manifest stats is False (a part without a manifest: True)."""
        return _or_kept(self._eval(predicate), self._no_manifest)

    def _zone(self, column: str) -> _Zone | None:
        try:
            return self._zones[column]
        except KeyError:
            zone = self._zones[column] = _build_zone(self._stats, column)
            return zone

    def _per_part(self, p: Predicate) -> np.ndarray:
        """The fallback: ``p``'s own ``might_match``, part by part."""
        return np.fromiter(
            (s is None or p.might_match(s) for s in self._stats),
            dtype=bool,
            count=len(self._stats),
        )

    def _eval(self, p: Predicate) -> np.ndarray:
        kind = type(p)
        if kind is And:
            return self._eval(p.left) & self._eval(p.right)
        if kind is Or:
            return self._eval(p.left) | self._eval(p.right)
        if kind is Compare:
            return self._compare(p)
        if kind is IsIn:
            return self._isin(p)
        if kind is Not:
            return self._not(p)
        return self._per_part(p)

    def _compare(self, p: Compare) -> np.ndarray:
        z, v = self._zone(p.column), _as_float(p.value)
        if z is None or v is None:
            return self._per_part(p)
        op = p.op
        if op == "==":
            m = (z.lo <= v) & (v <= z.hi)
        elif op == "!=":
            m = _not_constant(z, v)
        elif op == "<":
            m = z.lo < v
        elif op == "<=":
            m = z.lo <= v
        elif op == ">":
            m = z.hi > v
        else:
            m = z.hi >= v
        return _or_kept(m, z.missing)

    def _isin(self, p: IsIn) -> np.ndarray:
        z = self._zone(p.column)
        values = [_as_float(v) for v in p.values]
        if z is None or None in values:
            return self._per_part(p)
        v = np.array(values, dtype=np.float64)
        m = ((z.lo[:, None] <= v) & (v <= z.hi[:, None])).any(axis=1)
        return _or_kept(m, z.missing)

    def _not(self, p: Not) -> np.ndarray:
        inner = p.inner
        if not (isinstance(inner, Compare) and inner.op == "=="):
            return np.ones(len(self.parts), dtype=bool)
        z, v = self._zone(inner.column), _as_float(inner.value)
        if z is None or v is None:
            return self._per_part(p)
        return _or_kept(_not_constant(z, v), z.missing)


def _not_constant(z: _Zone, v: float) -> np.ndarray:
    """Where a part is not provably all ``v``: inexact bounds (NaN rows
    fall outside them), or not ``lo == hi == v``."""
    return ~z.exact | (z.lo != z.hi) | (z.hi != v)
