"""Checkpoint store for streaming queries.

The paper adopted Spark structured streaming in large part for its
"advanced failure and recovery mechanisms that can be difficult to
re-engineer from scratch" (§V-B) — so we engineer them from scratch.

A checkpoint atomically records, per query: the last completed batch id,
the consumer offsets *after* that batch, and opaque operator state.  On
restart the query resumes from the recorded offsets; because the sink is
invoked with the batch id, an idempotent sink yields effectively-once
output even though delivery is at-least-once.

The store is JSON-serializable so it can live on disk; atomicity on disk
is provided by write-to-temp + rename.  A crash can still leave a
truncated ``checkpoints.json`` behind (died mid-``os.replace`` on
filesystems without atomic rename, or a torn direct write); restart must
survive that file, not brick on it — the corrupt file is quarantined
(renamed ``checkpoints.json.corrupt-N``) and the query replays from
scratch, which the idempotent-sink contract absorbs.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from typing import Any

from repro.obs import METRICS

__all__ = [
    "CheckpointStore",
    "CheckpointCorruptError",
    "CheckpointCorruptWarning",
]


class CheckpointCorruptError(RuntimeError):
    """A checkpoint file failed to parse and was quarantined.

    Not raised during load — recovery must proceed — but recorded on
    the store (:attr:`CheckpointStore.last_corruption`) and carried by
    the :class:`CheckpointCorruptWarning` so operators see exactly what
    was moved where.
    """

    def __init__(self, path: str, quarantined_to: str, reason: str) -> None:
        super().__init__(
            f"corrupt checkpoint file {path}: {reason}; "
            f"quarantined to {quarantined_to}, starting from empty state"
        )
        self.path = path
        self.quarantined_to = quarantined_to
        self.reason = reason


class CheckpointCorruptWarning(UserWarning):
    """Warning category for quarantined checkpoint files."""


def _is_int(value: object) -> bool:
    """An int and not a bool (JSON ``true`` loads as ``True``)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _well_formed(entry: object) -> bool:
    """Whether one query's entry has the shape :meth:`CheckpointStore.commit`
    writes: an int ``batch_id``, ``offsets`` from partition numbers
    (decimal strings) to ints, and a dict ``state``."""
    if not isinstance(entry, dict):
        return False
    offsets = entry.get("offsets")
    return (
        _is_int(entry.get("batch_id"))
        and isinstance(offsets, dict)
        and all(
            k.isascii() and k.isdigit() and _is_int(v) for k, v in offsets.items()
        )
        and isinstance(entry.get("state"), dict)
    )


class CheckpointStore:
    """Durable (optional) key-value store of per-query progress.

    Parameters
    ----------
    path:
        Directory for persistence.  ``None`` keeps checkpoints in memory
        only (tests); with a path every commit is durably written.
    """

    def __init__(self, path: str | None = None) -> None:
        self.path = path
        self._state: dict[str, dict[str, Any]] = {}
        #: Set when the last load found a corrupt file and quarantined it.
        self.last_corruption: CheckpointCorruptError | None = None
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._load()

    def _file(self) -> str:
        assert self.path is not None
        return os.path.join(self.path, "checkpoints.json")

    def _load(self) -> None:
        try:
            with open(self._file(), "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except FileNotFoundError:
            self._state = {}
            return
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._quarantine(str(exc))
            return
        if not isinstance(loaded, dict):
            self._quarantine(
                f"expected a JSON object, got {type(loaded).__name__}"
            )
            return
        bad = next((q for q, e in loaded.items() if not _well_formed(e)), None)
        if bad is not None:
            self._quarantine(f"malformed entry for query {bad!r}")
            return
        self._state = loaded

    def _quarantine(self, reason: str) -> None:
        """Move a corrupt checkpoint file aside and start empty.

        A truncated file is exactly what a crash mid-write leaves
        behind; refusing to start (the old behaviour) turns one torn
        write into a permanently bricked query.  The file is preserved
        as ``checkpoints.json.corrupt-N`` for forensics.
        """
        src = self._file()
        n = 0
        while os.path.exists(f"{src}.corrupt-{n}"):
            n += 1
        dst = f"{src}.corrupt-{n}"
        os.replace(src, dst)
        self._state = {}
        self.last_corruption = CheckpointCorruptError(src, dst, reason)
        METRICS.inc("checkpoint.corrupt_quarantined")
        warnings.warn(
            CheckpointCorruptWarning(str(self.last_corruption)), stacklevel=4
        )

    def _persist(self) -> None:
        if self.path is None:
            return
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(self._state, fh)
            os.replace(tmp, self._file())
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def commit(
        self,
        query_id: str,
        batch_id: int,
        offsets: dict[int, int],
        state: dict[str, Any] | None = None,
    ) -> None:
        """Atomically record a completed batch.

        ``batch_id`` must be exactly one past the previous commit (or 0
        for the first), which catches skipped/duplicated batches early.
        """
        prev = self._state.get(query_id)
        expected = 0 if prev is None else prev["batch_id"] + 1
        if batch_id != expected:
            raise ValueError(
                f"non-contiguous checkpoint for {query_id!r}: "
                f"got batch {batch_id}, expected {expected}"
            )
        self._state[query_id] = {
            "batch_id": batch_id,
            "offsets": {str(k): int(v) for k, v in offsets.items()},
            "state": state or {},
        }
        self._persist()

    def last_batch_id(self, query_id: str) -> int | None:
        """Last committed batch id, or None if never committed."""
        entry = self._state.get(query_id)
        return None if entry is None else entry["batch_id"]

    def offsets(self, query_id: str) -> dict[int, int]:
        """Committed consumer offsets (empty if never committed)."""
        entry = self._state.get(query_id)
        if entry is None:
            return {}
        return {int(k): v for k, v in entry["offsets"].items()}

    def state(self, query_id: str) -> dict[str, Any]:
        """Opaque operator state of the last commit."""
        entry = self._state.get(query_id)
        return {} if entry is None else dict(entry["state"])

    def queries(self) -> list[str]:
        """All query ids with checkpoints."""
        return sorted(self._state)

    def reset(self, query_id: str) -> None:
        """Forget a query's progress (it will replay from scratch)."""
        self._state.pop(query_id, None)
        self._persist()
