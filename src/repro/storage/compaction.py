"""Compaction's merge: which parts to merge, and the bytes that makes.

Both halves are pure in what they are given — the live parts' shapes;
the input readers, their spans, the policy and the time column — and
touch no store: the commit protocol around them is
:meth:`repro.storage.tiers.TieredStore.compact`'s.  DESIGN.md §15
("Streaming merge") has the order proof and why every path writes the
bytes ``write_table`` would write for the sorted rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.columnar.file_format import RcfReader, RcfWriter
from repro.columnar.table import ColumnTable

if TYPE_CHECKING:  # tiers imports this module
    from repro.storage.tiers import TierPolicy

__all__ = ["Merged", "merge_parts", "merge_suffix"]


def merge_suffix(
    parts: Sequence[tuple[int, int | None]], small_rows: int, min_objects: int
) -> int:
    """How many of the newest ``parts`` one compaction should merge.

    ``parts`` is a dataset's live parts as ``(ingest_epochs, rows)``,
    oldest first; ``rows`` is None where the manifest does not say.
    Starting from the newest part and walking older, a part joins the
    suffix while it is *small* (fewer than ``small_rows`` rows) or holds
    no more ingest epochs than everything newer than it combined, so a
    big part is rewritten only when the output at least doubles it —
    rows are rewritten O(log N) times and O(log N) parts stay live.  The
    suffix is merged only when it has two or more parts and, counting
    everything older as one part, ``min_objects`` are present: the same
    tick a merge of all parts would have run on.  Returns 0 for "leave
    the dataset alone".  DESIGN.md §15 has the amortization argument.
    """
    if not parts:
        return 0
    n = 1
    newer_epochs = parts[-1][0]
    for epochs, rows in reversed(parts[:-1]):
        small = rows is not None and rows < small_rows
        if not small and epochs > newer_epochs:
            break
        n += 1
        newer_epochs += epochs
    older = 1 if n < len(parts) else 0
    return n if n >= 2 and n + older >= min_objects else 0


class _NotStreamable(Exception):
    """The inputs of a rewrite cannot be written piece by piece: their
    rows are out of order, or they disagree on a column's dtype."""


def _write_groups(writer: RcfWriter, pieces: Iterable[ColumnTable]) -> bytes:
    """Finish ``writer`` with the pieces' rows in order — byte for byte
    what :func:`write_table` makes of their concatenation, while
    holding one row group of it: pieces are regrouped so that every
    ``append`` ends on a row-group boundary of the whole.  The pieces
    must agree on column dtypes (:class:`_NotStreamable` otherwise): a
    concatenation promotes mixed dtypes across all of its rows, a chunk
    cannot."""
    size = writer.row_group_size
    dtypes: list[np.dtype] | None = None
    held: list[ColumnTable] = []
    held_rows = 0
    for piece in pieces:
        if not piece.num_rows:
            continue
        piece_dtypes = [c.dtype for c in piece.columns().values()]
        if dtypes is None:
            dtypes = piece_dtypes
        elif piece_dtypes != dtypes:
            raise _NotStreamable
        if held_rows + piece.num_rows < size:
            held.append(piece)
            held_rows += piece.num_rows
            continue
        if held:
            fill = size - held_rows
            writer.append(ColumnTable.concat(held + [piece.slice(0, fill)]))
            piece = piece.slice(fill, piece.num_rows)
        held_rows = piece.num_rows % size
        whole = piece.num_rows - held_rows
        writer.append(piece.slice(0, whole))
        held = [piece.slice(whole, piece.num_rows)] if held_rows else []
    writer.append(ColumnTable.concat(held))
    return writer.finish()


def _merge_runs(
    runs: Iterable[Sequence[tuple[float, int]]],
) -> list[tuple[float, int]]:
    """The spans of inputs laid end to end: empty spans dropped,
    neighbours of one epoch joined."""
    out: list[tuple[float, int]] = []
    for spans in runs:
        for epoch, n in spans:
            if out and out[-1][0] == epoch:
                out[-1] = (out[-1][0], out[-1][1] + n)
            elif n:
                out.append((float(epoch), int(n)))
    return out


def _epoch_rises(spans: Sequence[tuple[float, int]]) -> np.ndarray | None:
    """Row offsets at which :func:`_merge_runs` spans start, if each
    starts a later epoch than the one before — the only rows where time
    may fall if the rows are to be in (epoch, time) order already.
    None when an epoch falls (or is NaN): only a sort can order that."""
    if not (np.diff([epoch for epoch, _ in spans]) > 0).all():
        return None
    return np.cumsum([0] + [n for _, n in spans[:-1]])


def _time_in_order(
    ts: np.ndarray, row: int, prev_ts: float, rises: np.ndarray
) -> bool:
    """Whether times ``ts`` of the rows from offset ``row`` on, the row
    before them at ``prev_ts``, fall only at ``rises``.  A NaN is "no":
    its place in the order is whatever the sort gives it."""
    if np.isnan(ts).any():
        return False
    falls = np.flatnonzero(ts[1:] < ts[:-1]) + (row + 1)
    if ts[0] < prev_ts:
        falls = np.append(falls, row)
    return not falls.size or bool(np.isin(falls, rises).all())


def _groups_in_order(
    readers: Sequence[RcfReader],
    rises: np.ndarray,
    spliced: int,
    time_column: str,
) -> Iterator[ColumnTable]:
    """The inputs' row groups, one decoded at a time, for as long
    as their rows keep (span epoch, time) order
    (:class:`_NotStreamable` at the first that does not).  The
    first ``spliced`` groups are in the output already: only their
    time column is decoded, for the proof."""
    row, prev_ts = 0, -np.inf
    for reader in readers:
        for g in range(reader.num_row_groups):
            copied = reader is readers[0] and g < spliced
            if copied:
                ts = reader.decode_group_column(g, time_column)
            else:
                piece = reader.read_group(g)
                ts = piece[time_column]
            ts = np.asarray(ts, dtype=np.float64)
            if not _time_in_order(ts, row, prev_ts, rises):
                raise _NotStreamable
            row, prev_ts = row + ts.size, ts[-1]
            if not copied:
                yield piece


def _sort_by_epoch(
    combined: ColumnTable,
    runs: Sequence[Sequence[tuple[float, int]]],
    time_column: str,
) -> tuple[ColumnTable, list[tuple[float, int]]]:
    """``combined`` stably sorted by (span epoch, time), and the
    spans of the result."""
    created = np.concatenate(
        [
            np.repeat([c for c, _ in spans], [n for _, n in spans])
            for spans in runs
        ]
    )
    if time_column in combined.column_names:
        ts = np.asarray(combined[time_column], dtype=np.float64)
        order = np.lexsort((ts, created))
    else:
        order = np.argsort(created, kind="stable")
    created = created[order]
    bounds = np.flatnonzero(np.diff(created)) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [created.size]))
    return combined.take(order), [
        (float(created[s]), int(e - s)) for s, e in zip(starts, ends)
    ]


@dataclass(frozen=True)
class Merged:
    """One merge's output part: its bytes, the spans of its rows, the
    rows themselves if they were materialized (None when streamed), how
    many leading row groups were copied from the first input, and
    whether the rows had to be sorted."""

    blob: bytes
    spans: list[tuple[float, int]]
    table: ColumnTable | None
    spliced: int
    resorted: bool


def merge_parts(
    readers: Sequence[RcfReader],
    runs: Sequence[Sequence[tuple[float, int]]],
    policy: "TierPolicy",
    time_column: str,
    materialize: bool,
) -> Merged:
    """Merge the parts ``readers`` are open on, oldest first; ``runs``
    are their spans.  ``materialize`` asks for the merged table even
    when the rows could be streamed."""
    # The sort below is the identity, and the gather a copy, when
    # the inputs' rows are in (span epoch, time) order as they
    # stand — which costs one pass over the time column to prove.
    merged_spans = _merge_runs(runs)
    rises = _epoch_rises(merged_spans)
    provable = (
        rises is not None
        and all(r.schema == readers[0].schema for r in readers)
        and (time_column, False) in readers[0].schema
    )
    blob = combined = sorted_spans = None
    spliced = 0
    if provable and not materialize:
        writer = RcfWriter(policy.codec, policy.row_group_size)
        # The first input's full row groups are the output's: they
        # are copied, not decoded and encoded again — all but its
        # last group, which is decoded so that the dtype check
        # speaks for this input too.
        spliced = writer.append_encoded(readers[0], readers[0].num_row_groups - 1)
        try:
            blob = _write_groups(
                writer, _groups_in_order(readers, rises, spliced, time_column)
            )
        except _NotStreamable:
            spliced = 0
    if blob is None:
        combined = ColumnTable.concat([r.read() for r in readers])
        if not provable or not _time_in_order(
            np.asarray(combined[time_column], dtype=np.float64),
            0,
            -np.inf,
            rises,
        ):
            combined, sorted_spans = _sort_by_epoch(combined, runs, time_column)
        blob = _write_groups(RcfWriter(policy.codec, policy.row_group_size), [combined])
    spans = sorted_spans or merged_spans
    return Merged(blob, spans, combined, spliced, bool(sorted_spans))
