"""ColumnTable: a minimal struct-of-arrays table.

The unit of data exchanged between the pipeline, the columnar file format,
and the storage tiers.  Numeric columns are NumPy arrays; string columns
are NumPy object arrays (they are dictionary-encoded the moment they hit
disk, so the in-memory representation favours simplicity).
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

__all__ = ["ColumnTable"]

_NUMERIC_KINDS = frozenset("iuf")


def _normalize(name: str, col: np.ndarray | list) -> np.ndarray:
    arr = np.asarray(col)
    if arr.ndim != 1:
        raise ValueError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    if arr.dtype.kind in _NUMERIC_KINDS:
        return arr
    if arr.dtype.kind in ("U", "S", "O"):
        out = np.empty(arr.size, dtype=object)
        out[:] = [None if x is None else str(x) for x in arr.tolist()]
        return out
    raise TypeError(f"column {name!r} has unsupported dtype {arr.dtype}")


class ColumnTable:
    """An ordered mapping of column name -> 1-D array, all equal length.

    Examples
    --------
    >>> t = ColumnTable({"x": np.arange(3), "who": ["a", "b", "a"]})
    >>> t.num_rows
    3
    >>> t.column_names
    ['x', 'who']
    """

    def __init__(self, columns: Mapping[str, np.ndarray | list]) -> None:
        self._columns: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for name, col in columns.items():
            arr = _normalize(name, col)
            if n_rows is None:
                n_rows = arr.size
            elif arr.size != n_rows:
                raise ValueError(
                    f"column {name!r} has {arr.size} rows, expected {n_rows}"
                )
            self._columns[name] = arr
        self._n_rows = n_rows or 0

    @classmethod
    def _derived(cls, columns: dict[str, np.ndarray]) -> "ColumnTable":
        """A table over arrays taken from existing tables' columns
        (whole, sliced or indexed), which are 1-D, normalized and of
        equal length by construction — so none of ``__init__``'s
        per-column work is repeated on every derivation."""
        table = cls.__new__(cls)
        table._columns = columns
        table._n_rows = next(iter(columns.values())).size if columns else 0
        return table

    # -- shape --------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        """Row count."""
        return self._n_rows

    @property
    def num_columns(self) -> int:
        """Column count."""
        return len(self._columns)

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._n_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnTable):
            return NotImplemented
        if self.column_names != other.column_names:
            return False
        for name in self.column_names:
            a, b = self[name], other[name]
            if a.dtype == object or b.dtype == object:
                if a.tolist() != b.tolist():
                    return False
            elif not np.array_equal(a, b, equal_nan=True):
                return False
        return True

    # -- access -------------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(
                f"no column {name!r}; have {self.column_names}"
            ) from None

    def is_string(self, name: str) -> bool:
        """True if the column holds strings."""
        return self[name].dtype == object

    def columns(self) -> dict[str, np.ndarray]:
        """Name -> array view of all columns (zero copy)."""
        return dict(self._columns)

    @property
    def nbytes(self) -> int:
        """Approximate in-memory footprint."""
        total = 0
        for arr in self._columns.values():
            if arr.dtype == object:
                total += sum(len(s) if s else 1 for s in arr.tolist()) + arr.size * 8
            else:
                total += arr.nbytes
        return total

    # -- transforms ---------------------------------------------------------

    def select(self, names: Iterable[str]) -> "ColumnTable":
        """Project onto a subset of columns (order as given)."""
        return self._derived({n: self[n] for n in names})

    def filter(self, mask: np.ndarray) -> "ColumnTable":
        """Keep rows where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.size != self._n_rows:
            raise ValueError("mask length mismatch")
        # One index array, then one gather per column: a boolean index
        # would recount the mask for every column.
        idx = np.flatnonzero(mask)
        return self._derived({n: c[idx] for n, c in self._columns.items()})

    def take(self, indices: np.ndarray) -> "ColumnTable":
        """Gather rows by integer index."""
        indices = np.asarray(indices)
        if indices.ndim != 1:
            raise ValueError(
                f"indices must be 1-D, got shape {indices.shape}"
            )
        return self._derived({n: c[indices] for n, c in self._columns.items()})

    def slice(self, start: int, stop: int) -> "ColumnTable":
        """Row range [start, stop) — views for numeric columns."""
        return self._derived(
            {n: c[start:stop] for n, c in self._columns.items()}
        )

    def with_column(self, name: str, col: np.ndarray | list) -> "ColumnTable":
        """A new table with ``name`` added or replaced."""
        cols = dict(self._columns)
        cols[name] = col
        return ColumnTable(cols)

    def drop(self, names: Iterable[str]) -> "ColumnTable":
        """A new table without the given columns."""
        gone = set(names)
        return self._derived(
            {n: c for n, c in self._columns.items() if n not in gone}
        )

    def rename(self, mapping: Mapping[str, str]) -> "ColumnTable":
        """A new table with columns renamed per ``mapping``."""
        return self._derived(
            {mapping.get(n, n): c for n, c in self._columns.items()}
        )

    @classmethod
    def concat(cls, tables: list["ColumnTable"]) -> "ColumnTable":
        """Row-wise concatenation; schemas must match exactly."""
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return cls({})
        names = tables[0].column_names
        for t in tables[1:]:
            if t.column_names != names:
                raise ValueError(
                    f"schema mismatch: {t.column_names} != {names}"
                )
        return cls.concat_columns({n: [t[n] for t in tables] for n in names})

    @classmethod
    def concat_columns(
        cls, pieces: Mapping[str, list[np.ndarray]]
    ) -> "ColumnTable":
        """A table whose every column is its pieces concatenated in
        order — one fresh array per column, never a view of a piece.

        Pieces must be what a table's columns hold (1-D, normalized,
        whole or sliced or indexed) and add up to equal lengths per
        column; :meth:`concat` is this over its tables' columns.
        """
        columns = {}
        for n, arrays in pieces.items():
            out = np.concatenate(arrays)
            # Mixed dtypes promote (int + str -> object holding ints),
            # so only a same-dtype concatenation is normalized already.
            for a in arrays:
                if a.dtype != out.dtype:
                    out = _normalize(n, out)
                    break
            columns[n] = out
        return cls._derived(columns)

    def sort_by(self, name: str) -> "ColumnTable":
        """Rows ordered by one column (stable)."""
        col = self[name]
        if col.dtype == object:
            order = np.argsort(
                np.array([x if x is not None else "" for x in col.tolist()]),
                kind="stable",
            )
        else:
            order = np.argsort(col, kind="stable")
        return self.take(order)

    def head(self, n: int = 5) -> "ColumnTable":
        """First ``n`` rows."""
        return self.slice(0, min(n, self._n_rows))

    def to_pylist(self) -> list[dict]:
        """Rows as dicts (test/debug convenience — not a hot path)."""
        names = self.column_names
        cols = [self._columns[n].tolist() for n in names]
        return [dict(zip(names, row)) for row in zip(*cols)]

    def __repr__(self) -> str:
        return (
            f"ColumnTable({self.num_rows} rows x {self.num_columns} cols: "
            f"{', '.join(self.column_names[:6])}"
            f"{'...' if self.num_columns > 6 else ''})"
        )
