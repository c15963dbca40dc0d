"""Finding records emitted by the static-analysis engine.

A :class:`Finding` is one rule violation anchored to a file and line.
Findings carry a ``suppressed`` flag rather than being dropped when a
``# repro: ignore[RULE-ID]`` pragma matches: the JSON report keeps the
full picture (CI dashboards want to see what is being waived), while
exit status and the text report consider only unsuppressed findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["ERROR", "WARNING", "Finding", "rule_family"]

#: Severity levels.  ``error`` findings gate CI; ``warning`` findings are
#: reported but currently also gate (the repo policy is zero findings —
#: severity exists so downstream consumers can triage).
ERROR = "error"
WARNING = "warning"


def rule_family(rule_id: str) -> str:
    """The alphabetic family prefix of a rule id (``"DET001"`` -> ``"DET"``)."""
    head = []
    for ch in rule_id:
        if ch.isalpha():
            head.append(ch)
        else:
            break
    return "".join(head)


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at ``file:line``."""

    file: str
    line: int
    rule_id: str
    severity: str
    message: str
    suppressed: bool = field(default=False, compare=False)

    @property
    def family(self) -> str:
        return rule_family(self.rule_id)

    def as_dict(self) -> dict:
        """JSON-ready representation (schema documented in ``__main__``)."""
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "rule_family": self.family,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed,
        }

    def render(self) -> str:
        """One-line text rendering: ``path:line: RULE severity: message``."""
        return (
            f"{self.file}:{self.line}: {self.rule_id} "
            f"{self.severity}: {self.message}"
        )
