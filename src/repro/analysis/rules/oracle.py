"""ORACLE — fast-path contract rules.

Every optimized kernel in this repo ships with a reference oracle
(``factorize``/``factorize_reference``, ``choose_encoding``/
``choose_encoding_reference``), and routes calls back through it while
``repro.perf.baseline.baseline_mode()`` is entered — the one switch
benchmarks and equivalence tests use to flip the *whole* fast path off.
These rules keep that contract from rotting as new fast paths land:

* **ORACLE001** — a module defines an ``X``/``X_reference`` pair but
  never reads ``repro.perf.baseline``, so no switch can select the
  oracle.
* **ORACLE002** — a function named ``X_fast`` has no ``X`` or
  ``X_reference`` sibling to check it against.
"""

from __future__ import annotations

import ast

from repro.analysis.config import BASELINE_MODULE
from repro.analysis.engine import ModuleContext, Rule

__all__ = ["PairWithoutToggle", "FastWithoutOracle"]


class _OracleBase(Rule):
    """Collects top-level function defs once per module."""

    node_types = (ast.FunctionDef,)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._functions: dict[str, ast.FunctionDef] = {}

    def visit(self, node: ast.FunctionDef, ctx: ModuleContext) -> None:
        if ctx.scope:
            return  # only module top-level defs form the public contract
        self._functions[node.name] = node


def _reads_baseline(ctx: ModuleContext) -> bool:
    """True when a name or attribute chain in the module resolves into
    the baseline module (``baseline.active()`` after ``from repro.perf
    import baseline``, a dotted ``repro.perf.baseline.active()``, ...)."""
    return any(
        isinstance(node, (ast.Name, ast.Attribute))
        and f"{ctx.qualified_name(node)}.".startswith(f"{BASELINE_MODULE}.")
        for node in ast.walk(ctx.tree)
    )


class PairWithoutToggle(_OracleBase):
    id = "ORACLE001"
    name = "reference-pair-without-toggle"
    description = (
        "a module with fast/_reference function pairs must read the "
        "baseline switch (repro.perf.baseline) so baseline_mode() routes "
        "callers back to the reference"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        pairs = [
            (name, node)
            for name, node in self._functions.items()
            if not name.endswith("_reference")
            and f"{name}_reference" in self._functions
        ]
        if pairs and not _reads_baseline(ctx):
            name, node = pairs[0]
            ctx.report(
                self,
                node,
                f"{ctx.module or ctx.path}: defines "
                f"{name}/{name}_reference but never reads "
                f"{BASELINE_MODULE}, so baseline_mode() cannot select "
                "the oracle",
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
