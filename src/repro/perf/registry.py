"""A tiny process-wide timer/counter registry for the data plane.

The paper's operational lesson (§VI-B) is that you cannot steer an
ingest pipeline you do not measure: every hop of the hot path needs a
cheap, always-on cost meter.  This registry is that meter for the
reproduction — producers, consumers, the medallion stages, the columnar
encoder, and the tier manager all record wall time and volume here, and
``benchmarks/bench_e2e.py`` snapshots it into ``BENCH_e2e.json`` so each
PR leaves a performance trajectory behind.

Design constraints:

* **Cheap** — one ``perf_counter`` pair per timed call and a dict
  update; safe to leave enabled in tests and examples.
* **Thread-safe** — the library records from the calling thread, and
  callers may drive it from several of their own (DESIGN.md §8); a
  single lock guards the (tiny, coarse-grained) updates.
* **Pull-based** — nothing is printed or exported unless someone calls
  :meth:`PerfRegistry.snapshot`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

__all__ = ["PerfRegistry", "PERF"]


class _TimerStat:
    __slots__ = ("total_s", "calls", "max_s")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.calls = 0
        self.max_s = 0.0

    def add(self, dt: float) -> None:
        self.total_s += dt
        self.calls += 1
        if dt > self.max_s:
            self.max_s = dt


class PerfRegistry:
    """Named wall-time accumulators and monotonic counters."""

    def __init__(self) -> None:
        self._enabled = True
        self._suspend = 0
        self._lock = threading.Lock()
        self._timers: dict[str, _TimerStat] = {}
        self._counters: dict[str, float] = {}

    @property
    def enabled(self) -> bool:
        """Whether records are currently accepted (manual switch AND no
        active :meth:`disabled` region on any thread)."""
        with self._lock:
            return self._enabled and self._suspend == 0

    @enabled.setter
    def enabled(self, value: bool) -> None:
        with self._lock:
            self._enabled = bool(value)

    # -- recording ----------------------------------------------------------

    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating wall time under ``name``.

        Whether the block is recorded is decided *once, at entry*: a
        block that starts while recording is enabled lands in the stats
        even if a :meth:`disabled` region begins before it exits (and a
        block that starts disabled stays unrecorded however the flag
        moves).  Deciding again at exit — the old behaviour — silently
        dropped timings that straddled a baseline-bench region.
        """
        if not self.enabled:
            yield
            return
        t0 = perf_counter()
        try:
            yield
        finally:
            self._add_time_unconditional(name, perf_counter() - t0)

    def _add_time_unconditional(self, name: str, dt: float) -> None:
        with self._lock:
            stat = self._timers.get(name)
            if stat is None:
                stat = self._timers[name] = _TimerStat()
            stat.add(dt)

    def add_time(self, name: str, dt: float) -> None:
        """Record one timed invocation of ``name``."""
        if not self.enabled:
            return
        self._add_time_unconditional(name, dt)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the counter ``name``."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    # -- reading ------------------------------------------------------------

    def total_s(self, name: str) -> float:
        """Accumulated seconds under timer ``name`` (0.0 if never hit)."""
        with self._lock:
            stat = self._timers.get(name)
            return stat.total_s if stat is not None else 0.0

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 if never hit)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """All timers and counters as one JSON-ready dict."""
        with self._lock:
            return {
                "timers": {
                    name: {
                        "total_s": stat.total_s,
                        "calls": stat.calls,
                        "max_s": stat.max_s,
                    }
                    for name, stat in sorted(self._timers.items())
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def reset(self) -> None:
        """Drop all recorded timers and counters."""
        with self._lock:
            self._timers.clear()
            self._counters.clear()

    @contextmanager
    def disabled(self):
        """Context manager that pauses recording (for baseline benches).

        Implemented as a lock-guarded suppression *depth*, so the region
        is reentrant and safe under concurrency: overlapping regions —
        a baseline bench on one caller thread while another enters its
        own — each push and pop one level, and
        recording resumes exactly when the last one exits.  The previous
        save/restore of a shared boolean could restore a stale value and
        leave recording off forever.
        """
        with self._lock:
            self._suspend += 1
        try:
            yield
        finally:
            with self._lock:
                self._suspend -= 1


#: The process-wide registry the data plane records into.
PERF = PerfRegistry()
