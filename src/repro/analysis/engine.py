"""Single-pass AST rule engine.

The engine parses each file once and performs one recursive walk,
dispatching every node to the rules that registered interest in its
type.  Rules therefore share the traversal cost no matter how many are
enabled — the checker stays roughly as fast as ``ast.walk`` itself.

Per module, each rule sees::

    begin_module(ctx)          # reset per-module state
    visit(node, ctx)           # for every node whose type is in
                               # rule.node_types, in document order
    end_module(ctx)            # emit findings needing whole-module view

and once per run, after every file::

    finalize(checker)          # cross-module contracts (e.g. ORACLE003)

``ModuleContext`` carries the parsed tree, the dotted module name, an
import-alias resolver (``qualified_name``) and the lexical ancestor
stack, so rules stay small.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field

from repro.analysis.findings import ERROR, Finding, rule_family
from repro.analysis.suppress import SuppressionMap, collect_suppressions

__all__ = [
    "Rule",
    "ModuleContext",
    "Checker",
    "all_args",
    "is_contextmanager",
    "iter_python_files",
]

_SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


class Rule:
    """Base class for one rule id.

    Subclasses set ``id``/``name``/``description``/``severity`` and
    ``node_types`` (the AST classes they want dispatched), then override
    any of the four hooks.  A rule instance lives for a whole run, so
    per-module state must be reset in :meth:`begin_module`.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    severity: str = ERROR
    node_types: tuple[type, ...] = ()

    def begin_module(self, ctx: "ModuleContext") -> None:
        pass

    def visit(self, node: ast.AST, ctx: "ModuleContext") -> None:
        pass

    def end_module(self, ctx: "ModuleContext") -> None:
        pass

    def finalize(self, checker: "Checker") -> None:
        pass


@dataclass
class ModuleContext:
    """Everything a rule may want to know about the file being checked."""

    path: str
    module: str  # dotted, e.g. "repro.pipeline.factorize"; "" if unknown
    source: str
    tree: ast.Module
    suppressions: SuppressionMap
    findings: list[Finding] = field(default_factory=list)
    # Lexical state maintained by the engine during the walk:
    ancestors: list[ast.AST] = field(default_factory=list)
    scope: list[ast.AST] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)
    #: Per-module records rules stash in ``end_module`` for their
    #: ``finalize`` pass, keyed by rule id.
    records: dict[str, object] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """Dotted package containing the module (the module itself for
        ``__init__`` files, which ``module`` already names as the
        package)."""
        if not self.module:
            return ""
        head, _, tail = self.module.rpartition(".")
        return head if head else self.module

    def top_package(self) -> str:
        """First two dotted components (``"repro.pipeline"``)."""
        parts = self.module.split(".")
        return ".".join(parts[:2]) if len(parts) >= 2 else self.module

    def in_function(self) -> bool:
        return any(isinstance(s, _FUNC_TYPES) for s in self.scope)

    def enclosing_function(self) -> ast.AST | None:
        for node in reversed(self.scope):
            if isinstance(node, _FUNC_TYPES):
                return node
        return None

    def qualified_name(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted origin.

        ``np.random.default_rng`` resolves through ``import numpy as
        np`` to ``numpy.random.default_rng``; ``datetime.now`` through
        ``from datetime import datetime`` to ``datetime.datetime.now``.
        Returns ``None`` for non-name expressions (calls, subscripts).
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        origin = self.aliases.get(parts[0])
        if origin is not None:
            parts[0:1] = origin.split(".")
        return ".".join(parts)

    def report(
        self,
        rule: Rule,
        node: ast.AST,
        message: str,
        *,
        line: int | None = None,
    ) -> None:
        start = line if line is not None else getattr(node, "lineno", 1)
        end = getattr(node, "end_lineno", None) or start
        suppressed = self.suppressions.matches(
            rule.id, rule_family(rule.id), start, end
        )
        self.findings.append(
            Finding(
                file=self.path,
                line=start,
                rule_id=rule.id,
                severity=rule.severity,
                message=message,
                suppressed=suppressed,
            )
        )


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to dotted import origins, wherever the import
    appears (lazy in-function imports included)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def all_args(args: ast.arguments) -> list[ast.arg]:
    """Every parameter of a function or lambda, ``*args``/``**kw`` too."""
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def is_contextmanager(node: ast.AST) -> bool:
    """True for a def decorated ``@contextmanager`` (bare or dotted)."""
    return any(
        getattr(deco, "attr", getattr(deco, "id", None)) == "contextmanager"
        for deco in getattr(node, "decorator_list", ())
    )


def module_name_for_path(path: str) -> str:
    """Dotted module name, anchored at the last ``repro`` path segment.

    Files outside a ``repro`` tree (scratch fixtures) get ``""`` —
    package-scoped rules then simply do not apply.
    """
    norm = os.path.normpath(os.path.abspath(path))
    parts = norm.split(os.sep)
    try:
        idx = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return ""
    rel = parts[idx:]
    if rel[-1].endswith(".py"):
        rel[-1] = rel[-1][: -len(".py")]
    if rel[-1] == "__init__":
        rel = rel[:-1]
    return ".".join(rel)


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated .py list."""
    out: list[str] = []
    seen: set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d not in {"__pycache__", ".git"}
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        if full not in seen:
                            seen.add(full)
                            out.append(full)
        elif path.endswith(".py"):
            if path not in seen:
                seen.add(path)
                out.append(path)
    return out


class Checker:
    """Runs a set of rules over files; collects findings and the
    per-module records cross-module rules read in ``finalize``."""

    def __init__(self, rules: list[Rule]):
        self.rules = rules
        self.findings: list[Finding] = []
        #: module name -> arbitrary per-rule records, populated by rules
        #: during end_module for use in finalize (keyed by rule id).
        self.module_records: dict[str, dict[str, object]] = {}
        self._dispatch: dict[type, list[Rule]] = {}
        for rule in rules:
            for node_type in rule.node_types:
                self._dispatch.setdefault(node_type, []).append(rule)

    # -- per-file ------------------------------------------------------------

    def check_source(
        self, source: str, path: str, module: str | None = None
    ) -> list[Finding]:
        """Check one already-read source string (testing entry point)."""
        tree = ast.parse(source, filename=path)
        ctx = ModuleContext(
            path=path,
            module=module if module is not None else module_name_for_path(path),
            source=source,
            tree=tree,
            suppressions=collect_suppressions(source),
        )
        ctx.aliases = _collect_aliases(tree)
        for rule in self.rules:
            rule.begin_module(ctx)
        self._walk(tree, ctx)
        for rule in self.rules:
            rule.end_module(ctx)
        if ctx.records:
            self.module_records[ctx.module or ctx.path] = dict(ctx.records)
        self.findings.extend(ctx.findings)
        return ctx.findings

    def check_file(self, path: str) -> list[Finding]:
        with open(path, "r", encoding="utf-8") as fh:
            return self.check_source(fh.read(), path)

    def _walk(self, node: ast.AST, ctx: ModuleContext) -> None:
        interested = self._dispatch.get(type(node))
        if interested:
            for rule in interested:
                rule.visit(node, ctx)
        is_scope = isinstance(node, _SCOPE_TYPES)
        ctx.ancestors.append(node)
        if is_scope:
            ctx.scope.append(node)
        for child in ast.iter_child_nodes(node):
            self._walk(child, ctx)
        if is_scope:
            ctx.scope.pop()
        ctx.ancestors.pop()

    # -- whole run -----------------------------------------------------------

    def run(self, paths: list[str]) -> list[Finding]:
        for path in iter_python_files(paths):
            try:
                self.check_file(path)
            except SyntaxError as exc:
                self.findings.append(
                    Finding(
                        file=path,
                        line=exc.lineno or 1,
                        rule_id="PARSE",
                        severity=ERROR,
                        message=f"syntax error: {exc.msg}",
                    )
                )
        for rule in self.rules:
            rule.finalize(self)
        self.findings.sort()
        return self.findings
