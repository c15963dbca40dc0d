"""Predicate algebra with statistics-based pruning.

A predicate can do two things:

* :meth:`Predicate.mask` — evaluate exactly against in-memory data,
* :meth:`Predicate.might_match` — answer conservatively ("maybe") against
  per-chunk min/max statistics, enabling the reader to *skip whole row
  groups without decoding them*.  This is the mechanism that makes OCEAN
  scans of years of telemetry tractable (Fig. 8's refinement pipeline
  stores job-id- and time-sorted data precisely so pruning bites).

``might_match(stats) == False`` must imply ``mask(data).any() == False``
for any data summarized by ``stats`` — the soundness property the
hypothesis tests check.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

from repro.columnar.table import ColumnTable

__all__ = [
    "Predicate",
    "Col",
    "Compare",
    "IsIn",
    "And",
    "Or",
    "Not",
    "stats_bounds",
]

#: Per-column chunk statistics: ``(min, max)``, ``(min, max, exact)``, or
#: None when unavailable.  ``exact=False`` marks bounds that skip rows
#: the mask can still match (float NaN rows are excluded from min/max
#: but satisfy ``!=``), so only prunes that are sound for *excluded*
#: rows may fire on inexact stats.
Stats = dict[str, tuple[Any, Any] | None]

#: Longest ``IsIn`` value list evaluated as OR-ed equality on numeric
#: columns; ``np.isin`` beyond.
_ISIN_EQUALITY_MAX = 8


def stats_bounds(s) -> tuple[Any, Any, bool] | None:
    """Normalize a stats entry to ``(lo, hi, exact)``.

    Accepts the legacy 2-tuple form (implicitly exact), the 3-tuple
    form written for NaN-bearing float chunks, and plain lists (the
    manifest's JSON round trip).  Returns None when no stats exist.
    """
    if s is None:
        return None
    if len(s) == 3:
        lo, hi, exact = s
        return lo, hi, bool(exact)
    lo, hi = s
    return lo, hi, True


class Predicate(abc.ABC):
    """Base class for all predicate nodes."""

    @abc.abstractmethod
    def mask(self, table: ColumnTable) -> np.ndarray:
        """Boolean row mask over ``table``."""

    @abc.abstractmethod
    def might_match(self, stats: Stats) -> bool:
        """Conservative test against chunk statistics (True = maybe)."""

    @abc.abstractmethod
    def columns(self) -> set[str]:
        """Columns this predicate reads."""

    def __and__(self, other: "Predicate") -> "And":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Or":
        return Or(self, other)

    def __invert__(self) -> "Not":
        return Not(self)


@dataclass(frozen=True)
class Compare(Predicate):
    """``column <op> value`` for op in ==, !=, <, <=, >, >=."""

    column: str
    op: str
    value: Any

    _OPS = ("==", "!=", "<", "<=", ">", ">=")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown op {self.op!r}")

    def mask(self, table: ColumnTable) -> np.ndarray:
        return self.mask_array(table[self.column])

    def mask_array(self, col: np.ndarray) -> np.ndarray:
        """Boolean mask over one column array."""
        if col.dtype == object:
            vals = np.array(
                ["" if x is None else x for x in col.tolist()], dtype="U"
            )
            col = vals
        v = self.value
        if self.op == "==":
            return col == v
        if self.op == "!=":
            return col != v
        if self.op == "<":
            return col < v
        if self.op == "<=":
            return col <= v
        if self.op == ">":
            return col > v
        return col >= v

    def might_match(self, stats: Stats) -> bool:
        s = stats_bounds(stats.get(self.column))
        if s is None:
            return True  # no stats — cannot prune
        lo, hi, exact = s
        v = self.value
        try:
            if self.op == "==":
                return lo <= v <= hi
            if self.op == "!=":
                # Rows excluded from inexact bounds (NaN) always satisfy
                # "!=", so the constant-chunk prune needs exact stats.
                return not exact or not (lo == hi == v)
            if self.op == "<":
                return lo < v
            if self.op == "<=":
                return lo <= v
            if self.op == ">":
                return hi > v
            return hi >= v
        except TypeError:
            return True  # incomparable types — cannot prune

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class IsIn(Predicate):
    """``column in values``."""

    column: str
    values: tuple

    def mask(self, table: ColumnTable) -> np.ndarray:
        return self.mask_array(table[self.column])

    @cached_property
    def _value_array(self) -> np.ndarray:
        return np.asarray(self.values)

    def mask_array(self, col: np.ndarray) -> np.ndarray:
        """Boolean mask over one column array (see :meth:`Compare.mask_array`)."""
        if col.dtype == object:
            vals = set(self.values)
            return np.array([x in vals for x in col.tolist()], dtype=bool)
        vals = self._value_array
        if (
            vals.size <= _ISIN_EQUALITY_MAX
            and vals.dtype.kind in "biuf"
            and col.dtype.kind in "biuf"
        ):
            # np.isin's own short-list branch, without its per-call
            # wrapper (25 us on a 64-row group, paid per part scanned).
            mask = np.zeros(col.shape, dtype=bool)
            for v in vals.ravel():
                mask |= col == v
            return mask
        return np.isin(col, vals)

    def might_match(self, stats: Stats) -> bool:
        s = stats_bounds(stats.get(self.column))
        if s is None:
            return True
        lo, hi, _exact = s
        try:
            return any(lo <= v <= hi for v in self.values)
        except TypeError:
            return True

    def columns(self) -> set[str]:
        return {self.column}


@dataclass(frozen=True)
class And(Predicate):
    """Conjunction."""

    left: Predicate
    right: Predicate

    def mask(self, table: ColumnTable) -> np.ndarray:
        return self.left.mask(table) & self.right.mask(table)

    def might_match(self, stats: Stats) -> bool:
        return self.left.might_match(stats) and self.right.might_match(stats)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Or(Predicate):
    """Disjunction."""

    left: Predicate
    right: Predicate

    def mask(self, table: ColumnTable) -> np.ndarray:
        return self.left.mask(table) | self.right.mask(table)

    def might_match(self, stats: Stats) -> bool:
        return self.left.might_match(stats) or self.right.might_match(stats)

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()


@dataclass(frozen=True)
class Not(Predicate):
    """Negation.  Pruning is conservative: only ``NOT (col == const)``
    with a constant chunk can be pruned from min/max stats."""

    inner: Predicate

    def mask(self, table: ColumnTable) -> np.ndarray:
        return ~self.inner.mask(table)

    def might_match(self, stats: Stats) -> bool:
        if isinstance(self.inner, Compare) and self.inner.op == "==":
            s = stats_bounds(stats.get(self.inner.column))
            if s is not None:
                lo, hi, exact = s
                if not exact:
                    # NaN rows fall outside the bounds yet satisfy
                    # NOT(col == v); the constant-chunk prune is only
                    # sound when the bounds cover every row.
                    return True
                try:
                    return not (lo == hi == self.inner.value)
                except TypeError:
                    return True
        return True

    def columns(self) -> set[str]:
        return self.inner.columns()


class Col:
    """Column reference for building predicates fluently.

    Examples
    --------
    >>> p = (Col("power") > 100.0) & (Col("node") == 3)
    >>> isinstance(p, And)
    True
    """

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: Any) -> Compare:  # type: ignore[override]
        return Compare(self.name, "==", other)

    def __ne__(self, other: Any) -> Compare:  # type: ignore[override]
        return Compare(self.name, "!=", other)

    def __lt__(self, other: Any) -> Compare:
        return Compare(self.name, "<", other)

    def __le__(self, other: Any) -> Compare:
        return Compare(self.name, "<=", other)

    def __gt__(self, other: Any) -> Compare:
        return Compare(self.name, ">", other)

    def __ge__(self, other: Any) -> Compare:
        return Compare(self.name, ">=", other)

    def isin(self, values) -> IsIn:
        """Membership predicate."""
        return IsIn(self.name, tuple(values))

    def between(self, lo: Any, hi: Any) -> And:
        """Inclusive range predicate."""
        return And(Compare(self.name, ">=", lo), Compare(self.name, "<=", hi))

    __hash__ = None  # type: ignore[assignment]
