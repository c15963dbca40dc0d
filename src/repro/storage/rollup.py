"""Materialized Gold rollups: precomputed aggregates over OCEAN parts.

Dashboards and usage reports keep re-asking the same aggregate question
("mean power per node over the archive") and paying a full Silver scan
each time.  A :class:`GoldRollup` materializes the answer and keeps it
fresh *incrementally*: every OCEAN part contributes one small partial
aggregate, maintained at ingest and invalidated part-by-part when the
lifecycle manager compacts or expires parts.  Serving a query is then a
merge of the tiny partials — no blob fetch, no decode.

Partial aggregates are **decomposable**: per group we keep
``(sum, count, min, max)``, which merge (sum of sums, sum of counts,
min of mins, max of maxs) and yield the mean at read time.  ``count``,
``min`` and ``max`` merge *exactly*, whatever the part layout.  A float
``sum`` — and the ``mean`` derived from it — is a sum of per-part sums,
so how rows are grouped into parts decides the association order and
the result can differ in the last ulp between two layouts of the same
rows (and from the scan-and-aggregate oracle); it is exact only when
the values are exactly summable, e.g. integers.
Keying partials by *part* is what makes the rollup crash-consistent by
construction: reconciliation against the live part set (see
:meth:`repro.storage.tiers.TieredStore.query_rollup`) drops partials of
deleted parts and lazily backfills parts the rollup has not seen, so a
crash between a part rewrite and its rollup update can never serve a
stale aggregate.

NaN semantics deliberately mirror :func:`repro.pipeline.ops.group_by_agg`
(``sum``/``mean`` propagate NaN, ``count`` counts all rows), so a rollup
answer matches the scan-and-aggregate oracle up to that rounding.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro.columnar.table import ColumnTable
from repro.lineage.ids import rollup_partial_id
from repro.util.timeseries import bucket_indices, bucket_plan, bucket_reduce_planned

__all__ = ["RollupSpec", "GoldRollup"]

#: Aggregate column names every rollup emits after its group keys.
AGG_COLUMNS = ("sum", "count", "min", "max", "mean")


@dataclass(frozen=True)
class RollupSpec:
    """Definition of one materialized rollup.

    Parameters
    ----------
    name:
        Registry key of the rollup.
    source:
        Dataset whose OCEAN parts feed it.
    keys:
        Group-by columns of the source table.
    value:
        Numeric column being aggregated.
    bucket_s:
        Optional time bucketing: when set, a leading ``bucket`` key
        (``floor(t / bucket_s) * bucket_s`` of the time column) is added
        in front of ``keys``.
    """

    name: str
    source: str
    keys: tuple[str, ...]
    value: str
    bucket_s: float | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.source:
            raise ValueError("rollup name and source must be non-empty")
        if not self.keys and self.bucket_s is None:
            raise ValueError("rollup needs at least one key or a time bucket")
        if self.bucket_s is not None and not self.bucket_s > 0:  # refuses NaN too
            raise ValueError("bucket_s must be positive")


def _sortable(col: np.ndarray) -> np.ndarray:
    """An array ``np.unique``/argsort can order (None -> '' for strings,
    matching :meth:`ColumnTable.sort_by`)."""
    if col.dtype == object:
        return np.array([x if x is not None else "" for x in col.tolist()])
    return col


def _composite_codes(key_cols: list[np.ndarray]) -> np.ndarray:
    """Mixed-radix composite group codes with per-key ascending order
    (the same ordering contract as ``repro.pipeline.ops``)."""
    composite = np.zeros(key_cols[0].shape[0], dtype=np.int64)
    for col in key_cols:
        _, codes = np.unique(_sortable(col), return_inverse=True)
        radix = int(codes.max()) + 1 if codes.size else 1
        composite = composite * radix + codes.astype(np.int64)
    return composite


def _group_reduce(
    key_names: list[str],
    key_cols: list[np.ndarray],
    reductions: dict[str, tuple[np.ndarray, str]],
) -> ColumnTable:
    """GROUP BY ``key_cols``, reducing each named value column.

    Self-contained (``repro.storage`` may not import the pipeline layer)
    but rides the same :func:`repro.util.timeseries.bucket_reduce_planned`
    kernels as ``group_by_agg``, so reducer semantics are identical.
    """
    composite = _composite_codes(key_cols)
    plan = bucket_plan(composite)
    _, order, boundaries, _ = plan
    first = order[boundaries]
    out: dict[str, np.ndarray] = {
        name: col[first] for name, col in zip(key_names, key_cols)
    }
    for out_name, (values, reducer) in reductions.items():
        _, reduced = bucket_reduce_planned(plan, values, reducer)
        out[out_name] = reduced
    return ColumnTable(out)


class GoldRollup:
    """One incrementally-maintained rollup: part key -> partial aggregate.

    All methods are atomic under an internal lock (a caller's thread may
    ingest while another reconciles).  ``version`` advances on every mutation; the merged
    result and the partials' lineage node ids are memoized per version
    so repeated dashboard reads between ingests cost a dict lookup.
    """

    def __init__(self, spec: RollupSpec, time_column: str = "timestamp") -> None:
        self.spec = spec
        self.time_column = time_column
        self._lock = threading.Lock()
        self._parts: dict[str, ColumnTable] = {}
        self._version = 0
        self._merged: tuple[int, ColumnTable] | None = None
        self._nodes: tuple[int, tuple[str, ...]] | None = None

    @property
    def version(self) -> int:
        """Mutation counter (memo key of :meth:`merged`)."""
        with self._lock:
            return self._version

    # -- maintenance --------------------------------------------------------

    def _group_columns(
        self, table: ColumnTable
    ) -> tuple[list[str], list[np.ndarray]]:
        names: list[str] = []
        cols: list[np.ndarray] = []
        if self.spec.bucket_s is not None:
            ts = np.asarray(table[self.time_column], dtype=np.float64)
            names.append("bucket")
            cols.append(bucket_indices(ts, self.spec.bucket_s) * self.spec.bucket_s)
        for key in self.spec.keys:
            names.append(key)
            cols.append(table[key])
        return names, cols

    def partial(self, table: ColumnTable) -> ColumnTable:
        """The partial aggregate of one part's rows."""
        values = np.asarray(table[self.spec.value], dtype=np.float64)
        names, cols = self._group_columns(table)
        return _group_reduce(
            names,
            cols,
            {
                "sum": (values, "sum"),
                "count": (values, "count"),
                "min": (values, "min"),
                "max": (values, "max"),
            },
        )

    def observe_part(self, key: str, table: ColumnTable) -> None:
        """Record (or replace) the partial for one live part."""
        part = self.partial(table) if table.num_rows else None
        with self._lock:
            if part is None:
                self._parts.pop(key, None)
            else:
                self._parts[key] = part
            self._version += 1

    def drop_part(self, key: str) -> bool:
        """Forget a deleted part's partial; True when it was present."""
        with self._lock:
            hit = self._parts.pop(key, None) is not None
            if hit:
                self._version += 1
            return hit

    def part_keys(self) -> set[str]:
        """Keys of every part with a recorded partial."""
        with self._lock:
            return set(self._parts)

    def partial_nodes(self) -> tuple[str, ...]:
        """The lineage node id of every partial, keys ascending
        (:func:`repro.lineage.rollup_partial_id`), derived once per
        version."""
        with self._lock:
            if self._nodes is None or self._nodes[0] != self._version:
                name = self.spec.name
                self._nodes = (
                    self._version,
                    tuple(rollup_partial_id(name, k) for k in sorted(self._parts)),
                )
            return self._nodes[1]

    # -- serving ------------------------------------------------------------

    def _empty(self) -> ColumnTable:
        names = (["bucket"] if self.spec.bucket_s is not None else []) + list(
            self.spec.keys
        )
        cols: dict[str, np.ndarray] = {n: np.empty(0) for n in names}
        for agg in AGG_COLUMNS:
            cols[agg] = np.empty(0)
        return ColumnTable(cols)

    def merged(self) -> ColumnTable:
        """The full rollup: all live partials merged, keys ascending.

        Columns: the group keys, then ``sum``/``count``/``min``/``max``/
        ``mean`` of the value column.
        """
        with self._lock:
            if self._merged is not None and self._merged[0] == self._version:
                return self._merged[1]
            partials = [
                self._parts[k] for k in sorted(self._parts)
                if self._parts[k].num_rows
            ]
            version = self._version
        if not partials:
            out = self._empty()
        else:
            stacked = ColumnTable.concat(partials)
            key_names = [
                n for n in stacked.column_names
                if n not in ("sum", "count", "min", "max")
            ]
            out = _group_reduce(
                key_names,
                [stacked[n] for n in key_names],
                {
                    "sum": (stacked["sum"], "sum"),
                    "count": (stacked["count"], "sum"),
                    "min": (stacked["min"], "min"),
                    "max": (stacked["max"], "max"),
                },
            )
            out = out.with_column("mean", out["sum"] / out["count"])
        with self._lock:
            if self._version == version:
                self._merged = (version, out)
        return out
