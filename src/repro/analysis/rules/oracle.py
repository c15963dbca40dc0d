"""ORACLE — fast-path contract rules.

Every optimized kernel in this repo ships with a reference oracle
(``factorize``/``factorize_reference``, ``choose_encoding``/
``choose_encoding_reference``) plus a context-manager toggle that routes
execution back through the reference, and ``repro.perf.baseline.
baseline_mode()`` must enter every such toggle so benchmarks and
equivalence tests can flip the *whole* fast path off at once.  These
rules keep that contract from rotting as new fast paths land:

* **ORACLE001** — a module defines an ``X``/``X_reference`` pair but no
  reference/memo toggle (``@contextmanager`` named ``*_reference_mode``,
  ``*_disabled`` or ``*_mode``), so the oracle cannot be selected.
* **ORACLE002** — a function named ``X_fast`` has no ``X`` or
  ``X_reference`` sibling to check it against.
* **ORACLE003** — a module's reference toggles are not entered by
  ``repro.perf.baseline.baseline_mode`` (cross-module; only checked
  when the baseline module is part of the run).
"""

from __future__ import annotations

import ast

from repro.analysis.config import BASELINE_MODULE
from repro.analysis.engine import (
    Checker,
    ModuleContext,
    Rule,
    is_contextmanager,
)

__all__ = ["PairWithoutToggle", "FastWithoutOracle", "ToggleNotInBaseline"]

_TOGGLE_SUFFIXES = ("_reference_mode", "_disabled", "_mode")


class _OracleBase(Rule):
    """Collects top-level function defs once per module."""

    node_types = (ast.FunctionDef,)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._functions: dict[str, ast.FunctionDef] = {}
        self._toggles: dict[str, ast.FunctionDef] = {}

    def visit(self, node: ast.FunctionDef, ctx: ModuleContext) -> None:
        if ctx.scope:
            return  # only module top-level defs form the public contract
        self._functions[node.name] = node
        if node.name.endswith(_TOGGLE_SUFFIXES) and is_contextmanager(node):
            self._toggles[node.name] = node

    def _pairs(self) -> list[tuple[str, ast.FunctionDef]]:
        return [
            (name, node)
            for name, node in self._functions.items()
            if not name.endswith("_reference")
            and f"{name}_reference" in self._functions
        ]


class PairWithoutToggle(_OracleBase):
    id = "ORACLE001"
    name = "reference-pair-without-toggle"
    description = (
        "a module with fast/_reference function pairs must expose a "
        "contextmanager toggle (*_reference_mode/*_disabled) that routes "
        "callers back to the reference"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        pairs = self._pairs()
        if pairs and not self._toggles:
            name, node = pairs[0]
            ctx.report(
                self,
                node,
                f"{ctx.module or ctx.path}: defines "
                f"{name}/{name}_reference but no @contextmanager toggle "
                "(*_reference_mode or *_disabled) to select the oracle",
            )


class FastWithoutOracle(_OracleBase):
    id = "ORACLE002"
    name = "fast-path-without-oracle"
    description = (
        "a *_fast function must have a reference oracle sibling "
        "(the un-suffixed or *_reference spelling) in the same module"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        for name, node in self._functions.items():
            if not name.endswith("_fast"):
                continue
            stem = name[: -len("_fast")]
            if (
                stem not in self._functions
                and f"{stem}_reference" not in self._functions
            ):
                ctx.report(
                    self,
                    node,
                    f"{name} has no oracle sibling ({stem} or "
                    f"{stem}_reference) to verify it against",
                )


class ToggleNotInBaseline(_OracleBase):
    id = "ORACLE003"
    name = "toggle-not-registered-in-baseline"
    description = (
        "every module with fast/_reference pairs must have at least one "
        "of its toggles entered by repro.perf.baseline.baseline_mode"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        # Record for the cross-module pass; suppression is resolved now,
        # while the module's pragma map is still in hand.
        pairs = self._pairs()
        pair_line = pairs[0][1].lineno if pairs else 0
        record = {
            "path": ctx.path,
            "toggles": sorted(self._toggles),
            "pair_line": pair_line,
            "has_pairs": bool(pairs),
            "suppressed": bool(pairs)
            and ctx.suppressions.matches(
                self.id, "ORACLE", pair_line, pair_line
            ),
        }
        if ctx.module == BASELINE_MODULE:
            record["referenced"] = sorted(
                {
                    node.attr
                    for node in ast.walk(ctx.tree)
                    if isinstance(node, ast.Attribute)
                }
                | {
                    node.id
                    for node in ast.walk(ctx.tree)
                    if isinstance(node, ast.Name)
                }
            )
        ctx.records[self.id] = record

    def finalize(self, checker: Checker) -> None:
        records = {
            key: per_rule[self.id]
            for key, per_rule in checker.module_records.items()
            if self.id in per_rule
        }
        baseline = records.get(BASELINE_MODULE)
        if baseline is None:
            return  # baseline module not in this run; nothing to check
        referenced = set(baseline.get("referenced", ()))
        for module, record in sorted(records.items()):
            if not record["has_pairs"] or not record["toggles"]:
                continue
            if not any(t in referenced for t in record["toggles"]):
                checker.findings.append(
                    self._finding(module, record)
                )

    # -- plumbing ------------------------------------------------------------

    def _finding(self, module: str, record: dict):
        from repro.analysis.findings import Finding

        toggles = ", ".join(record["toggles"])
        return Finding(
            file=record["path"],
            line=record["pair_line"] or 1,
            rule_id=self.id,
            severity=self.severity,
            message=(
                f"{module}: none of its reference toggles ({toggles}) are "
                f"entered by {BASELINE_MODULE}.baseline_mode"
            ),
            suppressed=bool(record.get("suppressed")),
        )
