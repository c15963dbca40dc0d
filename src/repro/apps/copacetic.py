"""Copacetic: streaming security-event correlation.

"It detects when certain specific combinations of network availability,
system state, and user behavior occur and informs administrative teams"
— fed by "a reliable feed of real-time events and logs from
non-homogeneous data sources provided by ODA infrastructure", which is
what lets it beat batch SIEM tools on latency.

The engine keeps a sliding window of events per node and evaluates
declarative rules after every batch; each rule fires at most once per
(node, window) to avoid alert storms.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.telemetry.schema import SEVERITY_IDS, EventBatch

__all__ = ["Alert", "Rule", "CopaceticEngine"]


@dataclass(frozen=True)
class Alert:
    """One fired correlation."""

    rule: str
    node: int
    time: float
    detail: str


@dataclass(frozen=True)
class Rule:
    """A declarative correlation rule.

    ``condition`` receives the per-node event history inside the window
    — arrays of (timestamps, severities, message_ids) — and returns a
    detail string when the rule fires, else None.
    """

    name: str
    window_s: float
    condition: Callable[[np.ndarray, np.ndarray, np.ndarray], str | None]

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


def error_burst_rule(threshold: int = 5, window_s: float = 300.0) -> Rule:
    """>= threshold error-or-worse events on one node within the window."""
    floor = SEVERITY_IDS["error"]

    def condition(ts, sev, msg):
        n = int((sev >= floor).sum())
        if n >= threshold:
            return f"{n} error+ events in {window_s:.0f}s"
        return None

    return Rule("error-burst", window_s, condition)


def escalation_rule(window_s: float = 600.0) -> Rule:
    """Severity strictly escalating warning -> error -> critical."""

    def condition(ts, sev, msg):
        has = {level: (sev == SEVERITY_IDS[name]).any()
               for name, level in SEVERITY_IDS.items()}
        if (
            has[SEVERITY_IDS["warning"]]
            and has[SEVERITY_IDS["error"]]
            and has[SEVERITY_IDS["critical"]]
        ):
            return "warning->error->critical escalation"
        return None

    return Rule("severity-escalation", window_s, condition)


def auth_after_fault_rule(window_s: float = 900.0) -> Rule:
    """A login event shortly after a hardware fault on the same node —
    the paper's 'combinations of network availability, system state, and
    user behavior'."""
    # Message id 4 is the sshd-accepted template; 15+ are faults.
    def condition(ts, sev, msg):
        fault_times = ts[msg >= 15]
        login_times = ts[msg == 4]
        if fault_times.size and login_times.size:
            after = login_times[:, None] > fault_times[None, :]
            if after.any():
                return "login following a fault event"
        return None

    return Rule("auth-after-fault", window_s, condition)


def default_rules() -> list[Rule]:
    """The stock rule pack."""
    return [error_burst_rule(), escalation_rule(), auth_after_fault_rule()]


class CopaceticEngine:
    """Sliding-window rule evaluation over node-keyed event streams."""

    def __init__(self, rules: list[Rule] | None = None) -> None:
        self.rules = rules if rules is not None else default_rules()
        if not self.rules:
            raise ValueError("at least one rule required")
        # One lock over all engine state.  The framework's window loop
        # is the only process() caller, so the lock is uncontended — it
        # exists because "single writer, no concurrent reads" is an
        # invariant of the *caller*, and the per-node history lists
        # handed out by ``self._history[node]`` are mutated in place (the
        # exact alias shape the PR-8 ``meta.next_part`` bug had).
        self._lock = threading.Lock()
        self._history: dict[int, list[tuple[float, int, int]]] = {}
        self._fired: set[tuple[str, int, int]] = set()
        self.alerts: list[Alert] = []
        self.events_processed = 0

    def process(self, batch: EventBatch) -> list[Alert]:
        """Ingest one batch; returns alerts fired by it."""
        new_alerts: list[Alert] = []
        if len(batch) == 0:
            return new_alerts
        with self._lock:
            self.events_processed += len(batch)
            now = float(batch.timestamps.max())
            max_window = max(r.window_s for r in self.rules)

            for i in range(len(batch)):
                node = int(batch.component_ids[i])
                self._history.setdefault(node, []).append(
                    (
                        float(batch.timestamps[i]),
                        int(batch.severities[i]),
                        int(batch.message_ids[i]),
                    )
                )

            touched = set(batch.component_ids.tolist())
            for node in touched:
                history = self._history[node]
                # Evict beyond the largest window.
                horizon = now - max_window
                while history and history[0][0] < horizon:
                    history.pop(0)
                if not history:
                    continue
                ts = np.array([h[0] for h in history])
                sev = np.array([h[1] for h in history], dtype=np.int8)
                msg = np.array([h[2] for h in history], dtype=np.int16)
                for rule in self.rules:
                    in_window = ts >= now - rule.window_s
                    detail = rule.condition(ts[in_window], sev[in_window],
                                            msg[in_window])
                    if detail is None:
                        continue
                    # Dedup: one alert per (rule, node, window slot).
                    slot = int(now // rule.window_s)
                    key = (rule.name, node, slot)
                    if key in self._fired:
                        continue
                    self._fired.add(key)
                    alert = Alert(rule.name, node, now, detail)
                    self.alerts.append(alert)
                    new_alerts.append(alert)
        return new_alerts
