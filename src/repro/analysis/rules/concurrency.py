"""CONC — lexical lock discipline for module-level mutable state.

The memo caches (``factorize._cache``, ``encodings._memo``,
``compression._memo``, ``file_format._chunk_memo``) and the row-group
cache are module-level containers.  The library itself runs every
window, scan and request on the calling thread (DESIGN.md §8), but
callers may drive it from threads of their own, so each container is
guarded by a module-level ``threading.Lock`` and the fast-path switch
(``repro.perf.baseline_mode()``) by a lock-guarded depth counter.  These rules make that
discipline mechanical:

* **CONC001** — a function mutates a module-level container (item
  assignment, ``.pop``/``.update``/``.append``/..., ``del``, or a
  ``global`` rebind) outside a ``with <module lock>:`` block.
* **CONC002** — a function *reads* such a container without the lock,
  when the module elsewhere accesses the same container under a lock
  (i.e. the author considers it shared, so an unguarded read is a torn
  read waiting to happen).  Reported as a warning.
* **CONC003** — a ``@contextmanager`` toggle (``*_mode``/
  ``*_disabled``/``*_enabled``, such as ``baseline_mode()``) rebinds a
  module global outside the lock.  Two overlapping
  save/restore toggles then restore a stale value; the fix is the
  lock-guarded depth counter (see ``repro.perf.registry``).  CONC001
  does not see this: a scalar flag is not a container.

The detector is lexical: it only trusts ``with lock:`` blocks visible
in the same function.  Helpers that require a caller-held lock need a
``# repro: ignore[CONC...]`` pragma with a justification.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import (
    ModuleContext,
    Rule,
    all_args,
    is_contextmanager,
)
from repro.analysis.findings import WARNING

__all__ = [
    "UnlockedModuleStateWrite",
    "UnlockedModuleStateRead",
    "UnlockedToggle",
]

#: Methods that mutate dicts/lists/sets/deques in place.
_MUTATORS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
        "appendleft",
        "__setitem__",
        "__delitem__",
    }
)

#: Constructor calls whose module-level result we treat as shared
#: mutable state.
_CONTAINER_CTORS = frozenset(
    {
        "dict",
        "list",
        "set",
        "collections.OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
    }
)

_CONTAINER_LITERALS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)

_LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})

_TOGGLE_SUFFIXES = ("_mode", "_disabled", "_enabled")


@dataclass
class _ModuleState:
    containers: dict[str, int] = field(default_factory=dict)  # name -> lineno
    locks: set[str] = field(default_factory=set)
    # (name, node, guard-names-in-scope, is_write)
    accesses: list[tuple[str, ast.AST, frozenset[str], bool]] = field(
        default_factory=list
    )
    # container names touched under *some* lock anywhere in the module
    locked_names: set[str] = field(default_factory=set)
    # (toggle name, global name, node, guards) per global rebind in a toggle
    toggle_rebinds: list[tuple[str, str, ast.AST, frozenset[str]]] = field(
        default_factory=list
    )


def _is_module_scope(ctx: ModuleContext) -> bool:
    return not ctx.scope


def _guards(ctx: ModuleContext) -> frozenset[str]:
    """Names used as ``with <name>:`` context managers around the
    current node (searched up to the enclosing function boundary)."""
    names: set[str] = set()
    for node in reversed(ctx.ancestors):
        if isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                # accept both `with _lock:` and `with _lock.acquire():`
                if isinstance(expr, ast.Call):
                    expr = expr.func
                if isinstance(expr, ast.Attribute):
                    expr = expr.value
                if isinstance(expr, ast.Name):
                    names.add(expr.id)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            break
    return frozenset(names)


class _ConcBase(Rule):
    """Shared collection pass; subclasses emit from ``end_module``."""

    node_types = (
        ast.Assign,
        ast.AnnAssign,
        ast.AugAssign,
        ast.Delete,
        ast.Call,
        ast.Name,
    )

    def begin_module(self, ctx: ModuleContext) -> None:
        self._state = _ModuleState()
        self._global_cache: dict[int, frozenset[str]] = {}
        self._local_cache: dict[int, frozenset[str]] = {}

    # -- collection ----------------------------------------------------------

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        state = self._state
        if _is_module_scope(ctx):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_module_assign(node, ctx)
            return
        if not ctx.in_function():
            return  # class bodies: attribute defaults, not shared state
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            self._collect_toggle_rebinds(targets, node, ctx)
            for target in targets:
                name = self._container_target(target, ctx)
                if name is not None:
                    self._record(name, node, ctx, write=True)
        elif isinstance(node, ast.Delete):
            self._collect_toggle_rebinds(node.targets, node, ctx)
            for target in node.targets:
                name = self._container_target(target, ctx)
                if name is not None:
                    self._record(name, node, ctx, write=True)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in state.containers
                and not self._is_local_shadow(func.value.id, ctx)
            ):
                self._record(func.value.id, node, ctx, write=True)
        elif isinstance(node, ast.Name):
            if (
                isinstance(node.ctx, ast.Load)
                and node.id in state.containers
                and not self._is_local_shadow(node.id, ctx)
            ):
                self._record(node.id, node, ctx, write=False)

    def _collect_module_assign(
        self, node: ast.Assign | ast.AnnAssign, ctx: ModuleContext
    ) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        value = node.value
        if value is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, _CONTAINER_LITERALS):
                self._state.containers[target.id] = node.lineno
            elif isinstance(value, ast.Call):
                qual = ctx.qualified_name(value.func)
                if qual in _CONTAINER_CTORS:
                    self._state.containers[target.id] = node.lineno
                elif qual in _LOCK_CTORS:
                    self._state.locks.add(target.id)

    def _collect_toggle_rebinds(
        self, targets: list[ast.AST], node: ast.AST, ctx: ModuleContext
    ) -> None:
        """Names declared ``global`` that ``node`` rebinds inside a
        toggle (or a function nested in one)."""
        toggle = next(
            (
                scope.name
                for scope in ctx.scope
                if is_contextmanager(scope)
                and scope.name.endswith(_TOGGLE_SUFFIXES)
            ),
            None,
        )
        if toggle is None:
            return
        declared = self._globals_of(ctx.enclosing_function())
        guards = _guards(ctx)
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name) and sub.id in declared:
                    self._state.toggle_rebinds.append(
                        (toggle, sub.id, node, guards)
                    )

    def _container_target(
        self, target: ast.AST, ctx: ModuleContext
    ) -> str | None:
        """Container name written by an assignment/delete target."""
        state = self._state
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            name = target.value.id
            if name in state.containers and not self._is_local_shadow(
                name, ctx
            ):
                return name
            return None
        if isinstance(target, ast.Name) and target.id in state.containers:
            # Plain rebind only counts when the function declared the
            # name global; otherwise it creates a local shadow.
            func = ctx.enclosing_function()
            if func is not None and target.id in self._globals_of(func):
                return target.id
        return None

    def _is_local_shadow(self, name: str, ctx: ModuleContext) -> bool:
        """True when ``name`` is function-local (assigned in the
        enclosing function without a ``global`` declaration) — mutating
        a local is not a shared-state access."""
        func = ctx.enclosing_function()
        if func is None:
            return False
        if name in self._globals_of(func):
            return False
        return name in self._locals_of(func)

    def _locals_of(self, func: ast.AST) -> frozenset[str]:
        cached = self._local_cache.get(id(func))
        if cached is None:
            names = {arg.arg for arg in all_args(func.args)}
            for node in ast.walk(func):
                if isinstance(node, ast.Name) and isinstance(
                    node.ctx, (ast.Store, ast.Del)
                ):
                    names.add(node.id)
            cached = frozenset(names)
            self._local_cache[id(func)] = cached
        return cached

    def _globals_of(self, func: ast.AST) -> frozenset[str]:
        cached = self._global_cache.get(id(func))
        if cached is None:
            names: set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    names.update(node.names)
            cached = frozenset(names)
            self._global_cache[id(func)] = cached
        return cached

    def _record(
        self, name: str, node: ast.AST, ctx: ModuleContext, write: bool
    ) -> None:
        guards = _guards(ctx)
        if guards & self._state.locks:
            self._state.locked_names.add(name)
        self._state.accesses.append((name, node, guards, write))


class UnlockedModuleStateWrite(_ConcBase):
    id = "CONC001"
    name = "unlocked-module-state-write"
    description = (
        "module-level mutable containers shared across threads must only "
        "be mutated while holding a module-level threading.Lock"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        state = self._state
        for name, node, guards, write in state.accesses:
            if write and not (guards & state.locks):
                ctx.report(
                    self,
                    node,
                    f"module-level container {name!r} (defined at line "
                    f"{state.containers[name]}) mutated without holding a "
                    "module-level threading.Lock",
                )


class UnlockedModuleStateRead(_ConcBase):
    id = "CONC002"
    name = "unlocked-module-state-read"
    severity = WARNING
    description = (
        "reading a lock-guarded module-level container without the lock "
        "risks torn reads; take the lock or justify the suppression"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        state = self._state
        for name, node, guards, write in state.accesses:
            if (
                not write
                and name in state.locked_names
                and not (guards & state.locks)
            ):
                ctx.report(
                    self,
                    node,
                    f"module-level container {name!r} read without the "
                    "lock that guards its writers",
                )


class UnlockedToggle(_ConcBase):
    id = "CONC003"
    name = "unlocked-toggle-write"
    description = (
        "a @contextmanager reference/memo toggle rebinds a module global "
        "without the module lock; overlapping toggles restore a stale "
        "value (use a lock-guarded depth counter)"
    )

    def end_module(self, ctx: ModuleContext) -> None:
        state = self._state
        for toggle, name, node, guards in state.toggle_rebinds:
            if name in state.containers or guards & state.locks:
                continue  # container rebinds are CONC001's finding
            ctx.report(
                self,
                node,
                f"toggle {toggle} writes module global {name!r} without "
                "a lock; two overlapping toggles restore a stale value — "
                "use a lock-guarded depth counter "
                "(see repro.perf.registry.PerfRegistry.disabled)",
            )
