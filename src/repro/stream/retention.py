"""Retention policies for broker topics.

Fig. 5 assigns each data-service tier a class-specific retention time; the
STREAM tier keeps only in-flight data (hours-to-days).  A policy bounds a
partition by record age and/or total payload bytes; enforcement trims from
the head (oldest first), exactly like Kafka segment deletion.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetentionPolicy"]


@dataclass(frozen=True)
class RetentionPolicy:
    """Bounds on what a partition retains.

    Attributes
    ----------
    max_age_s:
        Records older than ``now - max_age_s`` are eligible for deletion
        (``None`` = unbounded age).
    max_bytes:
        Total retained payload bytes per partition; oldest records are
        trimmed until under the bound (``None`` = unbounded size).
    """

    max_age_s: float | None = None
    max_bytes: int | None = None

    def __post_init__(self) -> None:
        # ``not x > 0`` refuses NaN, which ``x <= 0`` lets through.
        if self.max_age_s is not None and not self.max_age_s > 0:
            raise ValueError("max_age_s must be positive or None")
        if self.max_bytes is not None and not self.max_bytes > 0:
            raise ValueError("max_bytes must be positive or None")

    @property
    def unbounded(self) -> bool:
        """True if this policy never deletes anything."""
        return self.max_age_s is None and self.max_bytes is None


#: Policy that never deletes (used by tests and the LAKE-bound topics).
RetentionPolicy.KEEP_ALL = RetentionPolicy()  # type: ignore[attr-defined]
