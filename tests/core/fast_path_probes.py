"""One probe per fast-path decision that ``baseline_mode()`` flips.

Each probe makes one call through a decision site and answers whether
that call took the reference path: the memo or cache was not touched,
or the ``*_reference`` oracle ran.  Probes are safe to call from many
threads at once — an oracle call is recorded per thread, and every
other probe reads state that only a fast-path call would change.

The ids keep the names of the per-module toggles the one switch
replaced, one per decision they used to govern.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.columnar import ColumnTable, encodings
from repro.pipeline import factorize
from repro.query import executor, scan
from repro.storage import DataClass, TieredStore
from repro.telemetry.jobs import AllocationTable, JobSpec

IDS = [
    "factorize.factorize_reference_mode",
    "encodings.encoding_reference_mode",
    "jobs.utilization_memo_disabled",
    "executor.scan_reference_mode",
    "cache.row_group_cache_disabled",
]

_seen = threading.local()


def _spy(monkeypatch, module, name: str) -> None:
    """Record on the calling thread every call of ``module.name``."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        getattr(_seen, "names", set()).add(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)


def _reached(name: str, call: Callable[[], object]) -> Callable[[], bool]:
    def probe() -> bool:
        _seen.names = set()
        call()
        return name in _seen.names

    return probe


def _utilization_unmemoized() -> bool:
    table = AllocationTable([JobSpec(0, "u", "p", "hpl", np.arange(4), 0.0, 900.0)])
    table.utilization(np.arange(4), np.arange(0.0, 300.0, 15.0))
    return not table._util_memo


def _archive() -> TieredStore:
    """A store with one OCEAN part whose chunks are encoded, not raw,
    so the fast scan decodes them through the row-group cache."""
    store = TieredStore()
    store.register("d", DataClass.SILVER)
    store.ingest(
        "d",
        ColumnTable(
            {
                "timestamp": np.arange(64, dtype=float),
                "node": np.repeat(np.arange(4.0), 16),
                "value": np.tile(np.arange(8.0), 8),
            }
        ),
        now=0.0,
    )
    return store


def install(monkeypatch) -> dict[str, Callable[[], bool]]:
    """Install the oracle spies and return the probes, keyed by ``IDS``.
    Each probe returns True iff its call took the reference path."""
    _spy(monkeypatch, factorize, "factorize_reference")
    _spy(monkeypatch, encodings, "choose_encoding_reference")
    _spy(monkeypatch, executor, "execute_plan_reference")
    _spy(monkeypatch, scan, "load_column")
    codes = np.arange(4096)
    store = _archive()
    cache_reached = _reached("load_column", lambda: store.query_archive("d"))
    probes = {
        "factorize.factorize_reference_mode": _reached(
            "factorize_reference", lambda: factorize.factorize(codes)
        ),
        "encodings.encoding_reference_mode": _reached(
            "choose_encoding_reference", lambda: encodings.choose_encoding(codes)
        ),
        "jobs.utilization_memo_disabled": _utilization_unmemoized,
        "executor.scan_reference_mode": _reached(
            "execute_plan_reference", lambda: store.query_archive("d")
        ),
        "cache.row_group_cache_disabled": lambda: not cache_reached(),
    }
    assert list(probes) == IDS
    return probes
