"""One switch for the pre-optimization data plane.

The fast path is a collection of pieces — content-addressed memos, the
fast encoding estimator and factorizer, planned scans with the
row-group cache, batched emission and zero-copy polling.  Every one of
them reads :func:`active` at call time and takes its reference path
while any thread is inside :func:`baseline_mode`, so benchmarks and
equivalence tests flip the *whole* fast path with one block — whatever
options the framework was built with.
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
    """Empty every fast-path memo (for benchmark isolation)."""
    # Imported lazily: repro.perf must stay import-light because the
    # instrumented modules import it.
    from repro.columnar import compression, encodings, file_format
    from repro.pipeline import factorize
    from repro.query import cache as query_cache

    factorize.clear_cache()
    encodings.clear_encoding_memo()
    compression.clear_compress_memo()
    file_format.clear_chunk_memo()
    query_cache.clear_row_group_cache()


def reset_all() -> None:
    """Full measurement isolation: fast-path memos, the PERF registry,
    and the obs tracer/metrics, all emptied in one call.

    ``reset_fast_path_caches`` alone promised "benchmark isolation" but
    left ``PERF``'s timers and counters intact, so every benchmark had
    to remember a second manual ``PERF.reset()`` — and a forgotten one
    silently blended repetitions.  Both benchmarks now call this.
    """
    from repro import obs
    from repro.perf.registry import PERF

    reset_fast_path_caches()
    PERF.reset()
    obs.reset_all()
