"""One switch for the pre-optimization data plane.

The fast path is a collection of pieces — the fast encoding estimator
and factorizer, the utilization memo, planned scans with the row-group
cache and batched emission.  Every one of them reads :func:`active` at
call time and takes its reference path while any thread is inside
:func:`baseline_mode`, so benchmarks and equivalence tests flip the
*whole* fast path with one block — whatever options the framework was
built with.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["active", "baseline_mode", "reset_fast_path_caches", "reset_all"]

_lock = threading.Lock()
#: Threads inside :func:`baseline_mode` (a depth counter rather than
#: save/restore, so overlapping blocks on two threads leave the switch
#: on until the last one exits).
_depth = 0


@contextmanager
def baseline_mode():
    """Run every fast-path decision through its reference for the
    duration of the block (reentrant, overlap-safe)."""
    global _depth
    with _lock:
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1


def active() -> bool:
    """Whether the reference path is selected (one int read, no lock)."""
    return _depth > 0


def reset_fast_path_caches() -> None:
    """Empty the fast-path cache — the row-group cache, the one left
    (for benchmark isolation)."""
    # Imported lazily: repro.perf must stay import-light because the
    # instrumented modules import it.
    from repro.query import cache as query_cache

    query_cache.clear_row_group_cache()


def reset_all() -> None:
    """Full measurement isolation: fast-path memos and the obs tracer
    and metrics registry, all emptied in one call (the isolation call
    every benchmark repetition makes)."""
    from repro import obs

    reset_fast_path_caches()
    obs.reset_all()
