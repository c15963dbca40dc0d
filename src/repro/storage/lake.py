"""LAKE: an online time-indexed columnar store.

The Druid/ElasticSearch role in Fig. 5: "immediate real-time usage needs
are catered to by the LAKE (online database access) service".  Tables are
sequences of time-bounded in-memory segments; queries slice by time range
first (binary search over segment bounds, then over the piece index
inside a segment), then apply predicates and projections.  This pruning
is what gives dashboards their sub-second interactivity even as data
accumulates.

Every ``ingest`` call adds one *piece*.  Like Druid's incremental index,
each table has one *open* segment whose column arrays keep spare
capacity: a piece is copied in past the fill mark and a new immutable
snapshot of the filled rows is published (DESIGN.md §11, "LAKE
segments"), so a table under :data:`SEGMENT_ROW_CEILING` rows is one
segment and a query pays the per-segment toll once.  The piece stays
the unit of ordering, retention and time pruning.
"""

from __future__ import annotations

from itertools import accumulate, groupby

import numpy as np

from repro.columnar.predicate import Predicate
from repro.columnar.table import ColumnTable
from repro.obs import METRICS
from repro.query import ScanOptions, execute_plan, plan_segments

__all__ = ["TimeSeriesLake"]

#: An open segment is sealed rather than grown past this many rows: it
#: bounds what one regrowth copies and what a retention-sliced segment
#: keeps alive.
SEGMENT_ROW_CEILING = 1 << 16


class _Segment:
    """A contiguous run of ingest pieces held as one table (immutable).

    The piece index is four parallel lists in row order: each piece's
    minimum time (non-decreasing — ingest enforces it), its maximum
    time, the running maximum up to and including it (non-decreasing,
    so it can be bisected), and the row at which it ends.
    """

    __slots__ = ("table", "t_mins", "t_maxes", "run_maxes", "ends")

    def __init__(
        self,
        table: ColumnTable,
        t_mins: list[float],
        t_maxes: list[float],
        ends: list[int],
        run_maxes: list[float] | None = None,
    ) -> None:
        self.table = table
        self.t_mins = t_mins
        self.t_maxes = t_maxes
        self.run_maxes = (
            run_maxes if run_maxes is not None else list(accumulate(t_maxes, max))
        )
        self.ends = ends

    def extended(self, table: ColumnTable, t_min: float, t_max: float) -> "_Segment":
        """A snapshot over ``table`` — this segment's rows and then one
        more piece's — with that piece added to the index."""
        return _Segment(
            table,
            self.t_mins + [t_min],
            self.t_maxes + [t_max],
            self.ends + [table.num_rows],
            self.run_maxes + [max(self.run_maxes[-1], t_max)],
        )

    def sealed(self) -> "_Segment":
        """This segment over arrays of exactly its rows: what a sealed
        open segment keeps, so none of its buffer's spare capacity
        outlives the seal."""
        table = ColumnTable._derived(
            {n: a.copy() for n, a in self.table.columns().items()}
        )
        return _Segment(table, self.t_mins, self.t_maxes, self.ends, self.run_maxes)

    def split_kept(self, keep: list[bool]) -> list["_Segment"]:
        """The kept pieces as row-range views of this segment's table,
        one segment per run of adjacent kept pieces."""
        out, i = [], 0
        for kept, group in groupby(keep):
            j = i + len(list(group))
            if kept:
                lo = self.ends[i - 1] if i else 0
                out.append(
                    _Segment(
                        self.table.slice(lo, self.ends[j - 1]),
                        self.t_mins[i:j],
                        self.t_maxes[i:j],
                        [end - lo for end in self.ends[i:j]],
                    )
                )
            i = j
        return out


class _OpenSegment:
    """A table's append buffer: one array per column, rows
    ``[start, fill)`` live and capacity to spare past ``fill``.

    A row is written once, past the fill mark, and never again, so every
    snapshot published over ``[start, fill)`` stays as it was.  When a
    piece does not fit past the fill mark, the live rows move to fresh
    arrays of doubled capacity, at most :data:`SEGMENT_ROW_CEILING` rows
    (``ingest`` seals the segment rather than pass it).
    """

    __slots__ = ("buffer", "start", "fill")

    def __init__(self, columns: dict[str, np.ndarray], capacity: int) -> None:
        self.buffer = ColumnTable._derived(
            {n: np.empty(capacity, c.dtype) for n, c in columns.items()}
        )
        self.start = self.fill = 0

    def dtypes(self) -> list[np.dtype]:
        return [a.dtype for a in self.buffer.columns().values()]

    def append(self, columns: dict[str, np.ndarray], rows: int) -> ColumnTable:
        """Copy a piece in past the fill mark; returns the live rows
        as views of the buffer."""
        live = self.fill - self.start
        capacity = self.buffer.num_rows
        if self.fill + rows > capacity:
            while capacity < live + rows:
                capacity *= 2
            capacity = min(capacity, SEGMENT_ROW_CEILING)
            old = self.buffer
            self.buffer = ColumnTable._derived(
                {n: np.empty(capacity, c.dtype) for n, c in old.columns().items()}
            )
            for n, a in self.buffer.columns().items():
                a[:live] = old[n][self.start : self.fill]
            self.start, self.fill = 0, live
            METRICS.inc("lake.rows_copied", live)
        end = self.fill + rows
        for n, a in self.buffer.columns().items():
            a[self.fill : end] = columns[n]
        self.fill = end
        METRICS.inc("lake.rows_copied", rows)
        return self.buffer.slice(self.start, end)


class TimeSeriesLake:
    """Multi-table, time-segmented in-memory store.

    Every ingested table must carry the configured time column; piece
    bounds are computed from it at ingest.
    """

    def __init__(
        self,
        time_column: str = "timestamp",
        scan_options: ScanOptions | None = None,
    ) -> None:
        self.time_column = time_column
        self.scan_options = scan_options or ScanOptions()
        self._tables: dict[str, list[_Segment]] = {}
        #: Table -> its open segment, whose latest snapshot is the last
        #: segment in the table's list.
        self._open: dict[str, _OpenSegment] = {}
        self.queries = 0
        self.segments_scanned = 0
        self.segments_pruned = 0

    # -- ingest ---------------------------------------------------------------

    def ingest(self, table_name: str, table: ColumnTable) -> None:
        """Append a piece.  Pieces must arrive in time order (the
        streaming pipeline guarantees this; out-of-order data is handled
        upstream by the watermark) and with the table's column names.

        The piece is copied into the table's open segment, which then
        publishes a snapshot with the piece added.  A piece that would
        take the open segment past :data:`SEGMENT_ROW_CEILING` rows, or
        whose column dtypes differ from its, seals it — its last
        snapshot is copied once into arrays of its own rows' size — and
        opens a new one.  The new segment list replaces the old in one
        assignment, so a concurrent ``query`` sees either.
        """
        if table.num_rows == 0:
            return
        if self.time_column not in table:
            raise ValueError(
                f"table lacks time column {self.time_column!r}"
            )
        segments = self._tables.get(table_name, [])
        if segments and table.column_names != segments[-1].table.column_names:
            raise ValueError(
                f"table {table_name!r} holds columns "
                f"{segments[-1].table.column_names}, got {table.column_names}"
            )
        ts = table[self.time_column]
        if not np.isfinite(ts).any():
            return  # nothing to bound the piece by; NaN rows match no query
        t_min, t_max = float(np.nanmin(ts)), float(np.nanmax(ts))
        if segments and t_min < segments[-1].t_mins[-1]:
            raise ValueError(
                f"segment starts at {t_min} before previous segment "
                f"start {segments[-1].t_mins[-1]}; ingest in time order"
            )
        columns = table.columns()
        rows = table.num_rows
        open_seg = self._open.get(table_name)
        if (
            open_seg is None
            or open_seg.fill - open_seg.start + rows > SEGMENT_ROW_CEILING
            or open_seg.dtypes() != [c.dtype for c in columns.values()]
        ):
            if open_seg is not None:
                segments = segments[:-1] + [segments[-1].sealed()]
            open_seg = self._open[table_name] = _OpenSegment(columns, rows)
            view = open_seg.append(columns, rows)
            segments = segments + [_Segment(view, [t_min], [t_max], [rows])]
        else:
            view = open_seg.append(columns, rows)
            segments = segments[:-1] + [segments[-1].extended(view, t_min, t_max)]
        self._tables[table_name] = segments

    # -- introspection ----------------------------------------------------------

    def tables(self) -> list[str]:
        """Names of all tables, sorted."""
        return sorted(self._tables)

    def segment_count(self, table_name: str) -> int:
        """Number of segments in a table, the open one included (0 if
        unknown)."""
        return len(self._tables.get(table_name, []))

    def piece_count(self, table_name: str) -> int:
        """Number of retained ingest pieces in a table (0 if unknown)."""
        return sum(len(s.ends) for s in self._tables.get(table_name, []))

    def row_count(self, table_name: str) -> int:
        """Total rows across segments."""
        return sum(s.table.num_rows for s in self._tables.get(table_name, []))

    def nbytes(self, table_name: str | None = None) -> int:
        """Approximate memory footprint of one table or the whole lake."""
        names = [table_name] if table_name else self.tables()
        return sum(
            s.table.nbytes for n in names for s in self._tables.get(n, [])
        )

    def time_bounds(self, table_name: str) -> tuple[float, float] | None:
        """(earliest, latest) timestamps, or None if empty."""
        segments = self._tables.get(table_name)
        if not segments:
            return None
        return segments[0].t_mins[0], max(s.run_maxes[-1] for s in segments)

    # -- query ------------------------------------------------------------------

    def query(
        self,
        table_name: str,
        t0: float | None = None,
        t1: float | None = None,
        predicate: Predicate | None = None,
        columns: list[str] | None = None,
    ) -> ColumnTable:
        """Rows with time in ``[t0, t1)`` matching ``predicate``.

        The request is planned (:func:`repro.query.plan_segments` —
        time pruning to whole segments, then to the rows of the pieces
        the window overlaps, before any row is touched) and executed by
        the shared read-plane executor, one segment after another.
        """
        self.queries += 1
        segments = self._tables.get(table_name, [])
        # An emptied or unknown table plans no unit: the executor's empty
        # result still carries the requested columns.
        cols = list(columns) if columns is not None else None
        if cols is None and segments:
            cols = list(segments[0].table.column_names)
        plan = plan_segments(
            table_name,
            [
                (
                    s.t_mins[0],
                    s.run_maxes[-1],
                    s.table,
                    (s.t_mins, s.run_maxes, s.ends),
                )
                for s in segments
            ],
            t0,
            t1,
            predicate,
            cols,
            self.time_column,
        )
        result = execute_plan(plan, self.scan_options)
        self.segments_scanned += plan.live_units
        self.segments_pruned += plan.pruned_units
        return result

    # -- retention ----------------------------------------------------------------

    def drop_before(self, table_name: str, horizon: float) -> int:
        """Delete pieces entirely older than ``horizon``; returns count.

        Partial overlaps are retained whole (piece granularity, like
        Druid's segments), so retention is conservative.  Rows leave a
        segment by slicing, not copying.  The open segment stays open
        from its first row after the last dropped piece, if its own
        last piece is kept; otherwise it is sealed, and what it keeps is
        copied out of its buffer, as a seal at ingest copies.
        """
        segments = self._tables.get(table_name, [])
        open_seg = self._open.get(table_name)
        seal = open_seg is not None and segments[-1].t_maxes[-1] < horizon
        kept: list[_Segment] = []
        dropped = 0
        for i, seg in enumerate(segments):
            keep = [t_max >= horizon for t_max in seg.t_maxes]
            if all(keep):
                kept.append(seg)
                continue
            dropped += keep.count(False)
            pieces = seg.split_kept(keep)
            if seal and i == len(segments) - 1:
                pieces = [piece.sealed() for piece in pieces]
            kept += pieces
        if not dropped:
            return 0
        if seal:
            del self._open[table_name]
        elif open_seg is not None:
            open_seg.start = open_seg.fill - kept[-1].table.num_rows
        self._tables[table_name] = kept
        return dropped

    def drop_table(self, table_name: str) -> None:
        """Remove a table entirely (missing tables are a no-op)."""
        self._tables.pop(table_name, None)
        self._open.pop(table_name, None)
