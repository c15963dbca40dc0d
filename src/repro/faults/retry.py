"""Retry with capped exponential backoff for transient transport faults.

This module is the *only* sanctioned place that catches the broker's
typed transient errors (rule EXC004).  ``Consumer``, the micro-batch
driver, and the tier writes all route their fallible hops through
:func:`call_with_retry`, which:

* retries :class:`~repro.stream.errors.TransientStreamError` subclasses
  up to ``policy.max_attempts`` total attempts,
* fails fast on everything else (``UnknownTopicError``, ``ValueError``,
  crashes — permanent by definition),
* counts every retry and give-up per site in the :data:`repro.obs.METRICS`
  registry (``faults.retry.<site>`` / ``faults.giveup.<site>``),
* keeps backoff *virtual*: delays are computed deterministically and
  accumulated into the ``faults.backoff_virtual_s`` counter (or handed
  to an injected ``sleep``) rather than stalling the test clock — the
  whole fault layer stays wall-clock-free and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import METRICS
from repro.stream.errors import TransientStreamError

__all__ = [
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "RetryExhaustedError",
    "call_with_retry",
]


class RetryExhaustedError(Exception):
    """A transient fault persisted through every allowed attempt.

    Permanent from the caller's perspective; the original transient
    error is chained as ``__cause__``.
    """

    def __init__(self, site: str, attempts: int, last: TransientStreamError) -> None:
        super().__init__(
            f"gave up at {site or 'unnamed site'} after {attempts} attempts: {last}"
        )
        self.site = site
        self.attempts = attempts
        self.last = last


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff: attempt ``k`` (0-based) waits
    ``min(base_delay_s * multiplier**k, max_delay_s)`` before retrying."""

    max_attempts: int = 4
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        # ``not x >= 0`` refuses NaN, which ``x < 0`` lets through.
        if not (self.base_delay_s >= 0 and self.max_delay_s >= 0):
            raise ValueError("delays must be non-negative")
        if not self.multiplier >= 1.0:
            raise ValueError("multiplier must be >= 1")

    def delay_s(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return min(
            self.base_delay_s * self.multiplier**retry_index, self.max_delay_s
        )

    def delays(self) -> tuple[float, ...]:
        """The full deterministic backoff sequence (one entry per retry)."""
        return tuple(self.delay_s(i) for i in range(self.max_attempts - 1))


#: Policy used by the data plane when none is configured.
DEFAULT_RETRY_POLICY = RetryPolicy()


def call_with_retry(
    fn: Callable[[], Any],
    *,
    policy: RetryPolicy = DEFAULT_RETRY_POLICY,
    site: str = "",
    sleep: Callable[[float], None] | None = None,
) -> Any:
    """Invoke ``fn``, retrying transient stream faults per ``policy``.

    ``sleep`` receives each backoff delay; by default the delay is only
    accounted (``faults.backoff_virtual_s``), never actually slept —
    deterministic tests must not wait on real time.  Raises
    :class:`RetryExhaustedError` (with the transient cause chained) once
    the budget is spent; permanent errors propagate untouched on the
    first attempt.
    """
    for attempt in range(policy.max_attempts):
        try:
            return fn()
        except TransientStreamError as exc:
            retries_left = policy.max_attempts - 1 - attempt
            if retries_left == 0:
                METRICS.inc(f"faults.giveup.{site or exc.site}")
                raise RetryExhaustedError(
                    site or exc.site, policy.max_attempts, exc
                ) from exc
            METRICS.inc(f"faults.retry.{site or exc.site}")
            delay = policy.delay_s(attempt)
            if sleep is not None:
                sleep(delay)
            else:
                METRICS.inc("faults.backoff_virtual_s", delay)
    raise AssertionError("unreachable: loop either returns or raises")
