"""Whole-program model for the interprocedural analysis passes.

The single-pass rule engine (:mod:`repro.analysis.engine`) sees one
module at a time; the RACE and DET010 families need to reason about the
*program* — which functions run on which threads, which locks are held
along a call path, where a seed value came from.  This module extracts,
in one extra AST walk per file, a :class:`ModuleSummary` that captures
everything those passes need, in a JSON-serializable form so the
incremental lint cache (:mod:`repro.analysis.cache`) can skip the parse
entirely on an unchanged file:

* module-level shared state: container/lock definitions (same notion as
  the CONC rules), plus simple module globals rebound from functions;
* per-class state: container attributes, lock attributes and the
  inferred types of object attributes (``self.broker = Broker(...)``);
* per-function summaries: shared-state accesses with the lexically held
  locks, lock acquisitions (for the deadlock-order graph), resolved-as-
  written call sites, spawn sites (``pool.submit``, ``Thread(target=)``),
  escaping closures, and seed-taint facts.

Resolution of call targets across modules happens later, in
:mod:`repro.analysis.callgraph`, once every summary is in hand.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "Access",
    "Acquire",
    "CallSite",
    "SpawnSite",
    "RngSite",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "build_module_summary",
]

#: Bump when the summary shape changes; the lint cache embeds it so a
#: stale on-disk summary can never feed a newer analysis pass.
#: 2: element-alias tracking (``x = shared[k]``) added to accesses.
SUMMARY_VERSION = 2

#: Mutating container methods (superset of the CONC rule's list).
MUTATORS = frozenset(
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
    }
)

CONTAINER_CTORS = frozenset(
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

CONTAINER_LITERALS = (
    ast.Dict,
    ast.List,
    ast.Set,
    ast.DictComp,
    ast.ListComp,
    ast.SetComp,
)

LOCK_CTORS = frozenset({"threading.Lock", "threading.RLock"})

#: Seedable RNG constructors whose seed argument DET010 taints-checks.
RNG_CTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.PCG64",
        "numpy.random.PCG64DXSM",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
        "numpy.random.RandomState",
        "random.Random",
    }
)

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


# -- records ------------------------------------------------------------------


@dataclass(frozen=True)
class Access:
    """One read or write of a shared-state candidate.

    ``target`` is canonical: ``"<module>.<name>"`` for module globals,
    ``"<module>.<Class>.<attr>"`` for instance attributes.  ``locks``
    are the canonical ids of locks lexically held at the access.
    """

    target: str
    kind: str  # "global" | "attr"
    write: bool
    line: int
    locks: tuple[str, ...]


@dataclass(frozen=True)
class Acquire:
    """A ``with <lock>:`` entry, with the locks already held around it."""

    lock: str
    line: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """A call as written, before cross-module resolution.

    ``callee`` is the dotted expression (aliases already applied when
    the head is an import), e.g. ``"repro.pipeline.factorize.factorize"``,
    ``"self.broker.fetch"``, ``"poll_values"``.  ``recv_type`` carries
    the inferred dotted class of the receiver when local type inference
    found one (annotation, constructor assignment).
    """

    callee: str
    line: int
    locks: tuple[str, ...]
    recv_type: str | None = None


@dataclass(frozen=True)
class SpawnSite:
    """A callable handed to another thread.

    ``via`` records the transport (``"submit"``, ``"thread"``);
    ``callee`` is the dotted name of the function object (after
    unwrapping ``partial(...)``), or ``""`` when the argument could not
    be resolved to a name.
    """

    callee: str
    via: str
    line: int


@dataclass(frozen=True)
class RngSite:
    """A seedable RNG construction, with the local taint verdict.

    ``taint`` is ``"tainted"``, ``"untainted"`` or ``"calls"``; in the
    ``"calls"`` case ``pending`` lists the called names whose return
    taint decides the verdict (resolved interprocedurally by DET010).
    """

    ctor: str
    line: int
    taint: str
    pending: tuple[str, ...] = ()


@dataclass
class FunctionSummary:
    """Everything the interprocedural passes need about one function."""

    name: str  # "func", "Class.method", "outer.<locals>.inner"
    module: str
    line: int
    params: tuple[str, ...] = ()
    accesses: list[Access] = field(default_factory=list)
    acquires: list[Acquire] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    #: Nested functions referenced outside a direct call (stored in a
    #: container, returned, passed along) — thread-entry candidates when
    #: the enclosing scope feeds an executor.
    escapes: tuple[str, ...] = ()
    #: Names of nested functions this function returns (``return task``),
    #: so ``submit(make_task(...))`` resolves through the factory.
    returns_funcs: tuple[str, ...] = ()
    is_toggle: bool = False
    #: Return-taint: "tainted" when every return expression is seed-
    #: derived, "untainted" when any is not, "calls" when it depends on
    #: the listed callees (fixpoint in the DET010 pass).
    return_taint: str = "untainted"
    return_pending: tuple[str, ...] = ()
    rng_sites: list[RngSite] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return f"{self.module}:{self.name}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "line": self.line,
            "params": list(self.params),
            "accesses": [list(astuple_access(a)) for a in self.accesses],
            "acquires": [[a.lock, a.line, list(a.held)] for a in self.acquires],
            "calls": [
                [c.callee, c.line, list(c.locks), c.recv_type]
                for c in self.calls
            ],
            "spawns": [[s.callee, s.via, s.line] for s in self.spawns],
            "escapes": list(self.escapes),
            "returns_funcs": list(self.returns_funcs),
            "is_toggle": self.is_toggle,
            "return_taint": self.return_taint,
            "return_pending": list(self.return_pending),
            "rng_sites": [
                [r.ctor, r.line, r.taint, list(r.pending)]
                for r in self.rng_sites
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSummary":
        return cls(
            name=d["name"],
            module=d["module"],
            line=d["line"],
            params=tuple(d["params"]),
            accesses=[
                Access(t, k, w, ln, tuple(locks))
                for t, k, w, ln, locks in d["accesses"]
            ],
            acquires=[
                Acquire(l, ln, tuple(held)) for l, ln, held in d["acquires"]
            ],
            calls=[
                CallSite(c, ln, tuple(locks), rt)
                for c, ln, locks, rt in d["calls"]
            ],
            spawns=[SpawnSite(c, v, ln) for c, v, ln in d["spawns"]],
            escapes=tuple(d["escapes"]),
            returns_funcs=tuple(d["returns_funcs"]),
            is_toggle=d["is_toggle"],
            return_taint=d["return_taint"],
            return_pending=tuple(d["return_pending"]),
            rng_sites=[
                RngSite(c, ln, t, tuple(p)) for c, ln, t, p in d["rng_sites"]
            ],
        )


def astuple_access(a: Access) -> tuple:
    return (a.target, a.kind, a.write, a.line, list(a.locks))


@dataclass
class ClassSummary:
    """Shared-state surface of one class."""

    name: str
    module: str
    line: int
    #: attr -> definition line, for attrs assigned a container anywhere.
    containers: dict[str, int] = field(default_factory=dict)
    #: attr -> definition line, for attrs assigned threading.Lock/RLock.
    locks: dict[str, int] = field(default_factory=dict)
    #: attr -> dotted class name, from ``self.x = ClassName(...)``.
    attr_types: dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "module": self.module,
            "line": self.line,
            "containers": dict(self.containers),
            "locks": dict(self.locks),
            "attr_types": dict(self.attr_types),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ClassSummary":
        return cls(
            name=d["name"],
            module=d["module"],
            line=d["line"],
            containers=dict(d["containers"]),
            locks=dict(d["locks"]),
            attr_types=dict(d["attr_types"]),
        )


@dataclass
class ModuleSummary:
    """The per-module slice of the project model."""

    module: str
    path: str
    containers: dict[str, int] = field(default_factory=dict)
    locks: dict[str, int] = field(default_factory=dict)
    #: Simple module globals rebound from function bodies (toggle flags).
    flags: dict[str, int] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    aliases: dict[str, str] = field(default_factory=dict)
    #: line -> suppressed rule ids/families, carried so project-level
    #: findings resolve pragmas without re-reading the source.
    suppressions: dict[int, list[str]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "module": self.module,
            "containers": dict(self.containers),
            "locks": dict(self.locks),
            "flags": dict(self.flags),
            "classes": {k: v.to_dict() for k, v in self.classes.items()},
            "functions": {k: v.to_dict() for k, v in self.functions.items()},
            "aliases": dict(self.aliases),
            "suppressions": {
                str(k): list(v) for k, v in self.suppressions.items()
            },
        }

    @classmethod
    def from_dict(cls, d: dict, path: str) -> "ModuleSummary":
        return cls(
            module=d["module"],
            path=path,
            containers=dict(d["containers"]),
            locks=dict(d["locks"]),
            flags=dict(d["flags"]),
            classes={
                k: ClassSummary.from_dict(v) for k, v in d["classes"].items()
            },
            functions={
                k: FunctionSummary.from_dict(v)
                for k, v in d["functions"].items()
            },
            aliases=dict(d["aliases"]),
            suppressions={
                int(k): list(v) for k, v in d["suppressions"].items()
            },
        )


# -- extraction ---------------------------------------------------------------

_TOGGLE_SUFFIXES = ("_reference_mode", "_disabled", "_mode", "_enabled")

#: Parameter names treated as trusted seed carriers by the taint pass.
SEEDISH = ("seed", "root_seed")


def _is_seedish(name: str) -> bool:
    return (
        name in SEEDISH
        or name.endswith("_seed")
        or name.startswith("seed_")
        or name.endswith("_seeds")
    )


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` chains as a dotted string (``None`` for anything else)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_contextmanager(node: ast.AST) -> bool:
    for deco in getattr(node, "decorator_list", ()):
        if isinstance(deco, ast.Attribute) and deco.attr == "contextmanager":
            return True
        if isinstance(deco, ast.Name) and deco.id == "contextmanager":
            return True
    return False


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
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
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return aliases


class _Extractor:
    """One recursive walk producing a :class:`ModuleSummary`."""

    def __init__(self, module: str, path: str, tree: ast.Module) -> None:
        self.module = module
        self.tree = tree
        self.summary = ModuleSummary(module=module, path=path)
        self.summary.aliases = _collect_aliases(tree)
        self._lambda_counter = 0

    def qualify(self, dotted: str | None) -> str | None:
        """Apply import aliases to the head of a dotted name."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        origin = self.summary.aliases.get(head)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    # -- module scope ---------------------------------------------------------

    def run(self) -> ModuleSummary:
        # Pass 1: module-level definitions (containers, locks, flags need
        # the full picture before function bodies are summarized).
        for node in self.tree.body:
            self._module_stmt(node)
        # Flags: module-level simple names rebound via ``global`` inside
        # any function — the toggle pattern RACE003 polices.
        declared_global: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in self.tree.body:
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                    and target.id not in self.summary.containers
                    and target.id not in self.summary.locks
                ):
                    self.summary.flags[target.id] = node.lineno

        # Pass 2: function bodies.
        for node in self.tree.body:
            if isinstance(node, _FUNC_TYPES):
                self._function(node, prefix="", cls=None)
            elif isinstance(node, ast.ClassDef):
                self._class(node)
        return self.summary

    def _module_stmt(self, node: ast.AST) -> None:
        targets: list[ast.AST] = []
        value = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, CONTAINER_LITERALS):
                self.summary.containers[target.id] = node.lineno
            elif isinstance(value, ast.Call):
                qual = self.qualify(_dotted(value.func))
                if qual in CONTAINER_CTORS:
                    self.summary.containers[target.id] = node.lineno
                elif qual in LOCK_CTORS:
                    self.summary.locks[target.id] = node.lineno

    def _class(self, node: ast.ClassDef) -> None:
        cls = ClassSummary(name=node.name, module=self.module, line=node.lineno)
        self.summary.classes[node.name] = cls
        # Attribute surface: every ``self.x = <value>`` in any method.
        for item in ast.walk(node):
            if not isinstance(item, (ast.Assign, ast.AnnAssign)):
                continue
            targets = (
                item.targets if isinstance(item, ast.Assign) else [item.target]
            )
            value = item.value
            if value is None:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                if isinstance(value, CONTAINER_LITERALS):
                    cls.containers.setdefault(attr, item.lineno)
                elif isinstance(value, ast.Call):
                    qual = self.qualify(_dotted(value.func))
                    if qual in CONTAINER_CTORS:
                        cls.containers.setdefault(attr, item.lineno)
                    elif qual in LOCK_CTORS:
                        cls.locks.setdefault(attr, item.lineno)
                    elif qual is not None and qual[:1].isalpha():
                        tail = qual.rsplit(".", 1)[-1]
                        if tail[:1].isupper():
                            cls.attr_types.setdefault(attr, qual)
        for item in node.body:
            if isinstance(item, _FUNC_TYPES):
                self._function(item, prefix=f"{node.name}.", cls=cls)

    # -- functions ------------------------------------------------------------

    def _function(
        self,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        cls: ClassSummary | None,
    ) -> None:
        name = f"{prefix}{node.name}"
        fn = _FunctionWalker(self, node, name, cls)
        self.summary.functions[name] = fn.run()
        for inner in fn.nested:
            self._function(inner, prefix=f"{name}.<locals>.", cls=cls)

    def lambda_name(self) -> str:
        self._lambda_counter += 1
        return f"<lambda#{self._lambda_counter}>"


#: Call patterns that move a callable to another thread.  ``submit``
#: matches any ``<pool>.submit(fn)``; ``Thread`` matches the stdlib
#: constructor's ``target=``.
_SPAWN_METHOD_VIAS = {"submit": "submit"}


class _FunctionWalker:
    """Summarize one function body (nested defs handled by the caller)."""

    def __init__(
        self,
        extractor: _Extractor,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        name: str,
        cls: ClassSummary | None,
    ) -> None:
        self.x = extractor
        self.node = node
        self.cls = cls
        self.summary = FunctionSummary(
            name=name,
            module=extractor.module,
            line=node.lineno,
            params=tuple(
                a.arg for a in _all_args(node.args) if a.arg != "self"
            ),
            is_toggle=(
                _is_contextmanager(node)
                and node.name.endswith(_TOGGLE_SUFFIXES)
            ),
        )
        self.nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
        self._nested_names: set[str] = set()
        self._locals: set[str] = set()
        self._globals: set[str] = set()
        #: local name -> dotted class, from annotations / ctor assigns.
        self._local_types: dict[str, str] = {}
        #: local name -> (container id, kind) for ``x = shared[k]``
        #: element aliases: mutating ``x`` mutates the container's
        #: element, so accesses through ``x`` count against the
        #: container (the ``meta.next_part`` shape RACE001 missed in
        #: PR 8).
        self._elem_aliases: dict[str, tuple[str, str]] = {}
        self._tainted: set[str] = set()
        self._escapes: set[str] = set()
        self._returns_funcs: set[str] = set()
        self._return_taints: list[tuple[str, tuple[str, ...]]] = []

        for arg in _all_args(node.args):
            self._locals.add(arg.arg)
            if arg.annotation is not None:
                ann = self._annotation_type(arg.annotation)
                if ann is not None:
                    self._local_types[arg.arg] = ann
            if _is_seedish(arg.arg):
                self._tainted.add(arg.arg)

        # Pre-scan: local assignment targets and global decls, so shadow
        # detection works regardless of statement order.
        for n in ast.walk(node):
            if n is node:
                continue
            if isinstance(n, _FUNC_TYPES) or isinstance(n, ast.Lambda):
                continue
            if isinstance(n, ast.Global):
                self._globals.update(n.names)
            elif isinstance(n, ast.Name) and isinstance(
                n.ctx, (ast.Store, ast.Del)
            ):
                self._locals.add(n.id)

    # -- helpers --------------------------------------------------------------

    def _annotation_type(self, ann: ast.AST) -> str | None:
        """Dotted class from an annotation, unwrapping subscripts and the
        ``X | None`` idiom (``list[Consumer]`` -> ``Consumer``)."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            head = _dotted(ann.value)
            if head is not None and head.rsplit(".", 1)[-1] in (
                "list",
                "List",
                "Optional",
                "Sequence",
                "tuple",
                "Tuple",
            ):
                return self._annotation_type(ann.slice)
            return None
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self._annotation_type(ann.left)
            return left or self._annotation_type(ann.right)
        dotted = _dotted(ann)
        if dotted is None or dotted in ("None",):
            return None
        qual = self.x.qualify(dotted)
        tail = (qual or dotted).rsplit(".", 1)[-1]
        return qual if tail[:1].isupper() else None

    def _module_lock_id(self, name: str) -> str | None:
        if name in self.x.summary.locks and name not in self._locals:
            return f"{self.x.module}.{name}"
        return None

    def _lock_id_of_expr(self, expr: ast.AST) -> str | None:
        """Canonical lock id of a ``with`` context expression."""
        # `with _lock:` / `with _lock.acquire():`
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr in (
                "acquire",
                "__enter__",
            ):
                expr = func.value
            else:
                return None
        if isinstance(expr, ast.Name):
            return self._module_lock_id(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
        ):
            base, attr = expr.value.id, expr.attr
            if base == "self" and self.cls is not None:
                if attr in self.cls.locks:
                    return f"{self.x.module}.{self.cls.name}.{attr}"
                return None
            base_type = self._local_types.get(base)
            if base_type is not None:
                return f"{base_type}.{attr}"
            origin = self.x.summary.aliases.get(base)
            if origin is not None and origin.startswith("repro."):
                return f"{origin}.{attr}"
        return None

    def _shared_target(
        self, expr: ast.AST
    ) -> tuple[str, str] | None:
        """(canonical id, kind) when ``expr`` names shared state."""
        if isinstance(expr, ast.Name):
            name = expr.id
            if name in self.x.summary.containers and (
                name not in self._locals or name in self._globals
            ):
                return f"{self.x.module}.{name}", "global"
            if name in self.x.summary.flags and name in self._globals:
                return f"{self.x.module}.{name}", "flag"
            return None
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base, attr = expr.value.id, expr.attr
            if base == "self" and self.cls is not None:
                if attr in self.cls.containers:
                    return f"{self.x.module}.{self.cls.name}.{attr}", "attr"
                return None
            origin = self.x.summary.aliases.get(base)
            if (
                origin is not None
                and origin.startswith("repro.")
                and base not in self._locals
            ):
                # `module.container` cross-module access; canonicalized
                # by the callgraph once all summaries are known.
                return f"{origin}.{attr}", "maybe-global"
        return None

    # -- taint ----------------------------------------------------------------

    def _expr_taint(self, expr: ast.AST) -> tuple[str, tuple[str, ...]]:
        """("tainted"|"untainted"|"calls", pending callees)."""
        if isinstance(expr, ast.Constant):
            return "tainted", ()
        if isinstance(expr, ast.Name):
            if expr.id in self._tainted:
                return "tainted", ()
            return "untainted", ()
        if isinstance(expr, ast.Attribute):
            dotted = _dotted(expr)
            if dotted is not None:
                head, _, tail = dotted.partition(".")
                if head == "self" and tail and _is_seedish(
                    tail.split(".")[0].lstrip("_")
                ):
                    return "tainted", ()
                if _is_seedish(dotted.rsplit(".", 1)[-1].lstrip("_")):
                    return "tainted", ()
            return "untainted", ()
        if isinstance(expr, ast.BinOp):
            lt, lp = self._expr_taint(expr.left)
            rt, rp = self._expr_taint(expr.right)
            return _combine_taints((lt, lp), (rt, rp))
        if isinstance(expr, ast.UnaryOp):
            return self._expr_taint(expr.operand)
        if isinstance(expr, (ast.Tuple, ast.List)):
            out = ("tainted", ())
            for elt in expr.elts:
                out = _combine_taints(out, self._expr_taint(elt))
            return out
        if isinstance(expr, ast.JoinedStr):
            out = ("tainted", ())
            for value in expr.values:
                if isinstance(value, ast.FormattedValue):
                    out = _combine_taints(out, self._expr_taint(value.value))
            return out
        if isinstance(expr, ast.Call):
            callee = self.x.qualify(_dotted(expr.func))
            if callee is None:
                return "untainted", ()
            from repro.analysis.config import (
                SEED_PROPAGATING_CALLS,
                SEED_SOURCE_FUNCTIONS,
            )

            tail = callee.rsplit(".", 1)[-1]
            if callee in SEED_SOURCE_FUNCTIONS or tail in {
                s.rsplit(".", 1)[-1] for s in SEED_SOURCE_FUNCTIONS
            }:
                return "tainted", ()
            if callee in SEED_PROPAGATING_CALLS:
                out = ("tainted", ())
                for arg in expr.args:
                    out = _combine_taints(out, self._expr_taint(arg))
                return out
            # Defer to the callee's return taint (fixpoint later).
            return "calls", (callee,)
        return "untainted", ()

    # -- walk -----------------------------------------------------------------

    def run(self) -> FunctionSummary:
        self._walk_body(self.node.body, held=())
        s = self.summary
        s.escapes = tuple(sorted(self._escapes & self._nested_names))
        s.returns_funcs = tuple(sorted(self._returns_funcs))
        if self._return_taints:
            verdict = ("tainted", ())
            for item in self._return_taints:
                verdict = _combine_taints(verdict, item)
            s.return_taint, s.return_pending = verdict[0], tuple(verdict[1])
        return s

    def _walk_body(self, body: list[ast.stmt], held: tuple[str, ...]) -> None:
        for stmt in body:
            self._walk_stmt(stmt, held)

    def _walk_stmt(self, stmt: ast.stmt, held: tuple[str, ...]) -> None:
        if isinstance(stmt, _FUNC_TYPES):
            self.nested.append(stmt)
            self._nested_names.add(stmt.name)
            return
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            inner = held
            for item in stmt.items:
                lock = self._lock_id_of_expr(item.context_expr)
                self._walk_expr(item.context_expr, held)
                if lock is not None:
                    self.summary.acquires.append(
                        Acquire(lock=lock, line=stmt.lineno, held=inner)
                    )
                    if lock not in inner:
                        inner = inner + (lock,)
            self._walk_body(stmt.body, inner)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if isinstance(stmt.value, ast.Name) and (
                    stmt.value.id in self._nested_names
                ):
                    self._returns_funcs.add(stmt.value.id)
                taint, pending = self._expr_taint(stmt.value)
                self._return_taints.append((taint, pending))
                self._walk_expr(stmt.value, held)
            else:
                self._return_taints.append(("tainted", ()))
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            if value is not None:
                self._walk_expr(value, held)
                # Local type + taint propagation.
                if isinstance(stmt, ast.Assign) and len(targets) == 1 and (
                    isinstance(targets[0], ast.Name)
                ):
                    tname = targets[0].id
                    ctor = None
                    if isinstance(value, ast.Call):
                        ctor = self.x.qualify(_dotted(value.func))
                    if ctor is not None and (
                        ctor.rsplit(".", 1)[-1][:1].isupper()
                    ):
                        self._local_types[tname] = ctor
                    taint, pending = self._expr_taint(value)
                    if taint == "tainted":
                        self._tainted.add(tname)
                if (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(targets[0], ast.Name)
                ):
                    ann = self._annotation_type(stmt.annotation)
                    if ann is not None:
                        self._local_types[targets[0].id] = ann
                # ``self.broker = broker`` with an annotated/inferred
                # local: the attribute inherits the type.
                if (
                    self.cls is not None
                    and isinstance(stmt, ast.Assign)
                    and len(targets) == 1
                    and isinstance(targets[0], ast.Attribute)
                    and isinstance(targets[0].value, ast.Name)
                    and targets[0].value.id == "self"
                    and isinstance(value, ast.Name)
                    and value.id in self._local_types
                ):
                    self.cls.attr_types.setdefault(
                        targets[0].attr, self._local_types[value.id]
                    )
            for target in targets:
                self._record_target(target, stmt, held)
                if isinstance(target, (ast.Tuple, ast.List)):
                    for elt in target.elts:
                        self._record_target(elt, stmt, held)
            self._capture_elem_alias(stmt, targets, value)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._record_target(target, stmt, held)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._walk_expr(stmt.test, held)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._walk_expr(stmt.iter, held)
            self._walk_body(stmt.body, held)
            self._walk_body(stmt.orelse, held)
            return
        if isinstance(stmt, ast.Try):
            self._walk_body(stmt.body, held)
            for handler in stmt.handlers:
                self._walk_body(handler.body, held)
            self._walk_body(stmt.orelse, held)
            self._walk_body(stmt.finalbody, held)
            return
        if isinstance(stmt, ast.Expr):
            self._walk_expr(stmt.value, held)
            return
        if isinstance(stmt, (ast.Raise,)):
            if stmt.exc is not None:
                self._walk_expr(stmt.exc, held)
            return
        # Everything else (pass, global, import, assert...) — walk any
        # embedded expressions generically.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._walk_expr(child, held)
            elif isinstance(child, ast.stmt):
                self._walk_stmt(child, held)

    def _capture_elem_alias(
        self, stmt: ast.stmt, targets: list, value: ast.AST | None
    ) -> None:
        """Track ``x = shared[k]`` (and ``.get``/``.setdefault``)
        element aliases.  The local *is* the container's element, so
        later accesses through it are accesses to shared state — the
        alias blind spot the PR-8 ``meta.next_part`` race hid in."""
        if (
            value is None
            or isinstance(stmt, ast.AugAssign)
            or len(targets) != 1
            or not isinstance(targets[0], ast.Name)
        ):
            return
        src = None
        if isinstance(value, ast.Subscript):
            src = self._shared_target(value.value)
        elif (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("get", "setdefault")
        ):
            src = self._shared_target(value.func.value)
        if src is not None:
            self._elem_aliases[targets[0].id] = src

    def _record_target(
        self, target: ast.AST, stmt: ast.stmt, held: tuple[str, ...]
    ) -> None:
        if isinstance(target, ast.Name):
            # Any rebind severs an element alias (the capture for a
            # fresh ``x = shared[k]`` runs after recording, so this
            # cannot eat its own alias).
            self._elem_aliases.pop(target.id, None)
        if isinstance(target, ast.Subscript):
            hit = self._shared_target(target.value)
            if hit is not None:
                tid, kind = hit
                self._add_access(tid, kind, True, stmt.lineno, held)
            self._walk_expr(target.value, held, skip_shared=True)
            return
        hit = self._shared_target(target)
        if hit is not None:
            tid, kind = hit
            # A plain Name rebind is shared only under ``global``.
            if isinstance(target, ast.Name) and target.id not in self._globals:
                return
            self._add_access(tid, kind, True, stmt.lineno, held)
            return
        if isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ):
            alias = self._elem_aliases.get(target.value.id)
            if alias is not None:
                # ``x.attr = ...`` through an element alias mutates the
                # container's element.
                self._add_access(alias[0], alias[1], True, stmt.lineno, held)

    def _add_access(
        self,
        target: str,
        kind: str,
        write: bool,
        line: int,
        held: tuple[str, ...],
    ) -> None:
        if kind == "flag":
            kind = "global"
        if kind == "maybe-global":
            kind = "global"
        self.summary.accesses.append(
            Access(
                target=target, kind=kind, write=write, line=line, locks=held
            )
        )

    def _walk_expr(
        self,
        expr: ast.AST,
        held: tuple[str, ...],
        skip_shared: bool = False,
    ) -> None:
        if isinstance(expr, ast.Lambda):
            # Lambdas summarize as anonymous nested functions; their
            # bodies run later, on whichever thread calls them.
            name = self.x.lambda_name()
            wrapper = ast.FunctionDef(
                name=name,
                args=expr.args,
                body=[ast.Return(value=expr.body, lineno=expr.lineno)],
                decorator_list=[],
                lineno=expr.lineno,
            )
            ast.fix_missing_locations(wrapper)
            self.nested.append(wrapper)
            self._nested_names.add(name)
            self._escapes.add(name)
            return
        if isinstance(expr, ast.Call):
            self._record_call(expr, held)
            for arg in expr.args:
                self._walk_expr(arg, held)
            for kw in expr.keywords:
                self._walk_expr(kw.value, held)
            return
        if isinstance(expr, ast.Name):
            if not skip_shared and isinstance(expr.ctx, ast.Load):
                if expr.id in self._nested_names:
                    self._escapes.add(expr.id)
                hit = self._shared_target(expr)
                if hit is not None and hit[1] != "flag":
                    self._add_access(hit[0], hit[1], False, expr.lineno, held)
            return
        if isinstance(expr, ast.Attribute):
            if not skip_shared and isinstance(expr.ctx, ast.Load):
                hit = self._shared_target(expr)
                if hit is not None and hit[1] == "attr":
                    self._add_access(hit[0], hit[1], False, expr.lineno, held)
                elif isinstance(expr.value, ast.Name):
                    alias = self._elem_aliases.get(expr.value.id)
                    if alias is not None:
                        self._add_access(
                            alias[0], alias[1], False, expr.lineno, held
                        )
            self._walk_expr(expr.value, held, skip_shared=True)
            return
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            # Comprehension generators are not ast.expr nodes; walk
            # their pieces explicitly or spawns inside them vanish.
            for gen in expr.generators:
                self._walk_expr(gen.iter, held)
                for cond in gen.ifs:
                    self._walk_expr(cond, held)
            if isinstance(expr, ast.DictComp):
                self._walk_expr(expr.key, held)
                self._walk_expr(expr.value, held)
            else:
                self._walk_expr(expr.elt, held)
            return
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._walk_expr(child, held)

    # -- calls ----------------------------------------------------------------

    def _record_call(self, call: ast.Call, held: tuple[str, ...]) -> None:
        func = call.func
        dotted = _dotted(func)
        callee = self.x.qualify(dotted) if dotted else None
        # Mutators through an element alias (`meta.items.append(...)`
        # never qualifies, so this runs regardless of callee).
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and isinstance(func.value, ast.Name)
        ):
            alias = self._elem_aliases.get(func.value.id)
            if alias is not None:
                self._add_access(alias[0], alias[1], True, call.lineno, held)
        recv_type = None
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id != "self"
        ):
            base = func.value.id
            if base in self._local_types:
                recv_type = self._local_types[base]
        if callee is not None:
            # Mutator methods on shared containers count as writes.
            if isinstance(func, ast.Attribute) and func.attr in MUTATORS:
                hit = self._shared_target(func.value)
                if hit is not None:
                    tid, kind = hit
                    self._add_access(tid, kind, True, call.lineno, held)
            self.summary.calls.append(
                CallSite(
                    callee=callee,
                    line=call.lineno,
                    locks=held,
                    recv_type=recv_type,
                )
            )
            self._spawn_check(call, callee, held)
            self._rng_check(call, callee)
        else:
            # Calls on subscripted receivers: `parts[p].append_many(...)`.
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Subscript
            ):
                base = func.value.value
                base_dotted = _dotted(base)
                base_type = None
                if isinstance(base, ast.Name):
                    base_type = self._local_types.get(base.id)
                elif (
                    base_dotted is not None
                    and base_dotted.startswith("self.")
                    and self.cls is not None
                ):
                    base_type = self.cls.attr_types.get(
                        base_dotted.split(".", 1)[1]
                    )
                if base_type is not None:
                    self.summary.calls.append(
                        CallSite(
                            callee=f"<elem>.{func.attr}",
                            line=call.lineno,
                            locks=held,
                            recv_type=base_type,
                        )
                    )

    def _spawn_check(
        self, call: ast.Call, callee: str, held: tuple[str, ...]
    ) -> None:
        tail = callee.rsplit(".", 1)[-1]
        via = _SPAWN_METHOD_VIAS.get(tail)
        if via is not None and call.args:
            name = self._callable_name(call.args[0])
            self.summary.spawns.append(
                SpawnSite(callee=name or "", via=via, line=call.lineno)
            )
            return
        if callee in ("threading.Thread", "Thread"):
            for kw in call.keywords:
                if kw.arg == "target":
                    name = self._callable_name(kw.value)
                    self.summary.spawns.append(
                        SpawnSite(
                            callee=name or "", via="thread", line=call.lineno
                        )
                    )

    def _callable_name(self, expr: ast.AST) -> str | None:
        """Dotted name of a callable argument, unwrapping ``partial``
        and calls to local task factories."""
        if isinstance(expr, ast.Call):
            inner_callee = self.x.qualify(_dotted(expr.func)) or ""
            tail = inner_callee.rsplit(".", 1)[-1]
            if tail == "partial" and expr.args:
                return self._callable_name(expr.args[0])
            # `submit(make_task(...))`: resolve through the factory's
            # returned nested function(s) later — record the factory
            # call with a marker the callgraph unwraps.
            if inner_callee:
                return f"<returns-of>{inner_callee}"
            return None
        dotted = _dotted(expr)
        if dotted is None:
            return None
        return self.x.qualify(dotted)

    def _rng_check(self, call: ast.Call, callee: str) -> None:
        if callee not in RNG_CTORS:
            return
        if not call.args and not call.keywords:
            # The syntactic DET002 rule already bans the unseeded form.
            return
        arg = call.args[0] if call.args else call.keywords[0].value
        taint, pending = self._expr_taint(arg)
        self.summary.rng_sites.append(
            RngSite(ctor=callee, line=call.lineno, taint=taint, pending=pending)
        )


def _combine_taints(
    a: tuple[str, tuple[str, ...]], b: tuple[str, tuple[str, ...]]
) -> tuple[str, tuple[str, ...]]:
    ta, pa = a
    tb, pb = b
    if "untainted" in (ta, tb):
        return "untainted", ()
    if ta == "calls" or tb == "calls":
        return "calls", tuple(dict.fromkeys((*pa, *pb)))
    return "tainted", ()


def _all_args(args: ast.arguments) -> list[ast.arg]:
    out = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        out.append(args.vararg)
    if args.kwarg:
        out.append(args.kwarg)
    return out


def build_module_summary(
    tree: ast.Module, module: str, path: str, suppressions=None
) -> ModuleSummary:
    """Extract the project-model slice for one parsed module."""
    summary = _Extractor(module, path, tree).run()
    if suppressions is not None:
        summary.suppressions = {
            line: sorted(ids)
            for line, ids in getattr(suppressions, "_by_line", {}).items()
        }
    return summary
