"""Span-based tracing for the ingest/query hourglass.

A :class:`Span` is one timed hop (produce, fetch, refine stage, tier
write, query execution); a :class:`Tracer` maintains the active span per
thread and links children to parents.

Determinism: span and trace IDs come from :mod:`repro.obs.ids` (seeds,
logical indices, tree position — never the clock), so two runs with the
same seeds emit byte-identical trace structure.  Durations are measured
with ``time.perf_counter`` — a monotonic interval timer, legal under the
DET rules because it never feeds data, only telemetry about telemetry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter

from repro.obs.ids import span_id, trace_id

__all__ = ["Span", "Tracer", "TRACER"]

#: Finished-span buffer bound; above it new spans are counted, not kept.
DEFAULT_MAX_SPANS = 100_000


class Span:
    """One timed hop in a trace tree."""

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "seq",
        "attrs",
        "duration_s",
        "status",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        trace: str,
        parent: str,
        seq: int,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace
        self.span_id = span_id(trace, parent, name, seq)
        self.parent_id = parent
        self.seq = seq
        self.attrs = attrs or {}
        self.duration_s = 0.0
        self.status = "ok"
        self._t0 = perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach attributes (chainable)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """JSON-ready form (the JSONL exporter's line payload)."""
        return {
            "kind": "span",
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "seq": self.seq,
            "status": self.status,
            "attrs": dict(sorted(self.attrs.items())),
            "duration_s": self.duration_s,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, trace={self.trace_id}, id={self.span_id}, "
            f"parent={self.parent_id or None})"
        )


class Tracer:
    """Process-wide span factory with per-thread context.

    The tracer is cheap to consult when idle: :meth:`span` outside any
    active trace yields ``None`` after a single thread-local check, so
    instrumented hot paths cost nothing in untraced unit tests.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if not max_spans > 0:  # refuses NaN too
            raise ValueError("max_spans must be positive")
        self.max_spans = max_spans
        self._lock = threading.Lock()
        self._local = threading.local()
        self._finished: list[Span] = []
        #: (trace_id, parent_id, name) -> next sibling sequence number.
        self._seq: dict[tuple[str, str, str], int] = {}
        self.dropped = 0
        self.enabled = True

    # -- context ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        """The active span on this thread (``None`` outside any trace)."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def active(self) -> bool:
        """Whether this thread is inside a trace."""
        return self.current() is not None

    # -- span creation ------------------------------------------------------

    def _next_seq(self, trace: str, parent: str, name: str) -> int:
        key = (trace, parent, name)
        with self._lock:
            seq = self._seq.get(key, 0)
            self._seq[key] = seq + 1
        return seq

    def _finish(self, span: Span, ok: bool) -> None:
        span.duration_s = perf_counter() - span._t0
        if not ok:
            span.status = "error"
        with self._lock:
            if len(self._finished) < self.max_spans:
                self._finished.append(span)
            else:
                self.dropped += 1

    @contextmanager
    def trace(self, *, seed: int, name: str, index: int = 0, **attrs):
        """Open a new root span under a deterministic trace ID.

        Nesting inside an existing trace is allowed and simply creates a
        fresh root (the outer trace resumes on exit).
        """
        if not self.enabled:
            yield None
            return
        tid = trace_id(seed, name, index)
        span = Span(name, tid, "", self._next_seq(tid, "", name), attrs)
        stack = self._stack()
        stack.append(span)
        try:
            yield span
            self._finish(span, ok=True)
        except BaseException:
            self._finish(span, ok=False)
            raise
        finally:
            stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Open a child of the current span; no-op outside a trace."""
        parent = self.current()
        if parent is None or not self.enabled:
            yield None
            return
        span = Span(
            name,
            parent.trace_id,
            parent.span_id,
            self._next_seq(parent.trace_id, parent.span_id, name),
            attrs,
        )
        stack = self._stack()
        stack.append(span)
        try:
            yield span
            self._finish(span, ok=True)
        except BaseException:
            self._finish(span, ok=False)
            raise
        finally:
            stack.pop()

    @contextmanager
    def span_or_trace(self, name: str, *, seed: int, index: int = 0, **attrs):
        """Child span when a trace is active, fresh root trace otherwise.

        The entry point instrumented code uses when it may run either
        under a caller's trace (joining it) or standalone (rooting its
        own, deterministically, from its seed and logical index).
        """
        if self.current() is not None:
            with self.span(name, **attrs) as s:
                yield s
        else:
            with self.trace(seed=seed, name=name, index=index, **attrs) as s:
                yield s

    # -- reading -------------------------------------------------------------

    def finished(self) -> list[Span]:
        """Completed spans, in completion order (copy)."""
        with self._lock:
            return list(self._finished)

    def reset(self) -> None:
        """Drop finished spans, sequence counters and the drop count.

        Live (unfinished) spans on other threads keep their IDs; resetting
        mid-trace is for tests and benchmark isolation, not the hot path.
        """
        with self._lock:
            self._finished.clear()
            self._seq.clear()
            self.dropped = 0


#: The process-wide tracer the data plane records into.
TRACER = Tracer()
