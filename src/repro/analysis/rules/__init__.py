"""Rule registry: one class per rule id, grouped in family modules."""

from __future__ import annotations

from repro.analysis.engine import Rule
from repro.analysis.findings import rule_family
from repro.analysis.rules.concurrency import (
    UnlockedModuleStateRead,
    UnlockedModuleStateWrite,
    UnlockedToggle,
)
from repro.analysis.rules.determinism import (
    UnseededRandom,
    UntaintedSeedSource,
    WallClock,
)
from repro.analysis.rules.exceptions import (
    BareExcept,
    StreamUntypedRaise,
    SwallowedException,
    TransientCatchOutsideRetry,
)
from repro.analysis.rules.imports import LayerViolation
from repro.analysis.rules.oracle import FastWithoutOracle, PairWithoutToggle

__all__ = ["ALL_RULE_CLASSES", "make_rules", "select_rules"]

#: Every shipped rule, in reporting order.
ALL_RULE_CLASSES: tuple[type[Rule], ...] = (
    WallClock,
    UnseededRandom,
    UntaintedSeedSource,
    UnlockedModuleStateWrite,
    UnlockedModuleStateRead,
    UnlockedToggle,
    PairWithoutToggle,
    FastWithoutOracle,
    BareExcept,
    SwallowedException,
    StreamUntypedRaise,
    TransientCatchOutsideRetry,
    LayerViolation,
)


def make_rules() -> list[Rule]:
    """Fresh instances of every rule (instances hold per-run state)."""
    return [cls() for cls in ALL_RULE_CLASSES]


def select_rules(
    select: list[str] | None = None, ignore: list[str] | None = None
) -> list[Rule]:
    """Instantiate rules filtered by id or family.

    ``select`` keeps only matching rules (empty/None keeps all);
    ``ignore`` then removes matches.  Tokens match a full rule id
    (``CONC001``) or a whole family (``CONC``), case-insensitively.
    """

    def matches(rule_cls: type[Rule], tokens: list[str]) -> bool:
        rid = rule_cls.id.upper()
        fam = rule_family(rid)
        return any(tok.upper() in (rid, fam) for tok in tokens)

    chosen = [
        cls
        for cls in ALL_RULE_CLASSES
        if not select or matches(cls, select)
    ]
    if ignore:
        chosen = [cls for cls in chosen if not matches(cls, ignore)]
    return [cls() for cls in chosen]
