"""Call-graph construction over the per-module summaries.

Takes the :class:`~repro.analysis.project.ModuleSummary` records from
one run and resolves the as-written call sites into edges between
:class:`~repro.analysis.project.FunctionSummary` nodes:

* ``module.func`` / ``from x import f`` — via the module index;
* ``self.method`` and ``self.attr.method`` — via class summaries and
  the inferred ``attr -> class`` types;
* ``obj.method`` — via annotation/constructor local types;
* ``ClassName(...)`` — to ``ClassName.__init__``;
* ``submit(factory(...))`` — through the factory's returned nested
  functions (the ``<returns-of>`` marker from extraction).

On top of the edges it computes the three whole-program facts the RACE
rules consume:

* **thread entries** — functions handed to executors /
  ``threading.Thread``, plus escaping closures of functions whose
  spawn argument could not be named;
* **domains** — for every function, which threads may run it: the
  union-over-paths of ``{"main"}`` from uncalled roots and ``{entry}``
  from each thread entry;
* **entry locksets** — the must-hold set: locks provably held whenever
  a function is entered, the intersection over all call paths of the
  caller's entry lockset plus the locks lexically held at the call
  site.  Thread entries and roots start with the empty set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.project import (
    CallSite,
    FunctionSummary,
    ModuleSummary,
    SpawnSite,
)

__all__ = ["Edge", "CallGraph", "build_callgraph"]

MAIN = "main"

_RETURNS_OF = "<returns-of>"


@dataclass(frozen=True)
class Edge:
    """One resolved synchronous call: ``caller`` invokes ``callee``."""

    caller: str  # qualname "module:name"
    callee: str
    line: int
    locks: tuple[str, ...]


@dataclass
class CallGraph:
    """Resolved project: functions, edges and the derived thread facts."""

    modules: dict[str, ModuleSummary]
    functions: dict[str, FunctionSummary]
    edges: list[Edge] = field(default_factory=list)
    #: entry qualname -> (spawning function qualname, via, line)
    entries: dict[str, tuple[str, str, int]] = field(default_factory=dict)
    #: qualname -> set of thread domains ("main" and/or entry qualnames)
    domains: dict[str, set[str]] = field(default_factory=dict)
    #: qualname -> locks provably held at every entry to the function
    entry_locks: dict[str, frozenset[str]] = field(default_factory=dict)
    #: name resolver (set by :func:`build_callgraph`); rules use it to
    #: resolve stray dotted names (taint pending-call verdicts).
    resolver: "_Resolver | None" = None
    _out: dict[str, list[Edge]] = field(default_factory=dict)
    _in: dict[str, list[Edge]] = field(default_factory=dict)

    # -- queries --------------------------------------------------------------

    def callees(self, qualname: str) -> list[Edge]:
        return self._out.get(qualname, [])

    def callers(self, qualname: str) -> list[Edge]:
        return self._in.get(qualname, [])

    def effective_locks(self, qualname: str, held: tuple[str, ...]) -> frozenset[str]:
        """Locks held at a site inside ``qualname`` given the lexical set."""
        return self.entry_locks.get(qualname, frozenset()) | frozenset(held)

    def call_path(self, origin: str, target: str) -> list[str]:
        """Shortest ``origin -> ... -> target`` chain of qualnames.

        ``origin`` is an entry qualname or :data:`MAIN`; from MAIN the
        search starts at every main-domain root.  Empty when no path
        exists (the target *is* the origin, or resolution lost it).
        """
        if origin == target:
            return [target]
        if origin == MAIN:
            starts = [
                q
                for q in self.functions
                if MAIN in self.domains.get(q, ()) and not self._in.get(q)
            ]
        else:
            starts = [origin]
        from collections import deque

        parent: dict[str, str] = {s: "" for s in starts}
        queue = deque(starts)
        while queue:
            cur = queue.popleft()
            if cur == target:
                path = [cur]
                while parent[path[-1]]:
                    path.append(parent[path[-1]])
                return list(reversed(path))
            for edge in self._out.get(cur, ()):
                if edge.callee not in parent:
                    parent[edge.callee] = cur
                    queue.append(edge.callee)
        return []

    #: Transitive lock acquisitions per function (for the order graph).
    def acquired_closure(self) -> dict[str, frozenset[str]]:
        acq: dict[str, set[str]] = {
            q: {a.lock for a in f.acquires} for q, f in self.functions.items()
        }
        changed = True
        while changed:
            changed = False
            for q in self.functions:
                mine = acq[q]
                before = len(mine)
                for edge in self._out.get(q, ()):
                    mine |= acq.get(edge.callee, set())
                if len(mine) != before:
                    changed = True
        return {q: frozenset(s) for q, s in acq.items()}


class _Resolver:
    def __init__(self, modules: dict[str, ModuleSummary]) -> None:
        self.modules = modules

    def _split_module(self, dotted: str) -> tuple[ModuleSummary, str] | None:
        """Longest module prefix of ``dotted`` + the remaining symbol."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            mod = self.modules.get(prefix)
            if mod is not None:
                return mod, ".".join(parts[cut:])
        return None

    def _symbol(self, mod: ModuleSummary, sym: str) -> list[str]:
        """Resolve a symbol path within one module to function qualnames."""
        if sym in mod.functions:
            return [f"{_mid(mod)}:{sym}"]
        head, _, tail = sym.partition(".")
        if head in mod.classes:
            if not tail:
                init = f"{head}.__init__"
                return [f"{_mid(mod)}:{init}"] if init in mod.functions else []
            if f"{head}.{tail}" in mod.functions:
                return [f"{_mid(mod)}:{head}.{tail}"]
            # Attribute-typed hop: ``Class.attr.method``.
            attr, _, rest = tail.partition(".")
            attr_type = mod.classes[head].attr_types.get(attr)
            if attr_type is not None and rest:
                return self.resolve_dotted(f"{attr_type}.{rest}")
        # ``module.ALIAS`` re-exports (``from x import f`` in __init__).
        origin = mod.aliases.get(head)
        if origin is not None:
            target = f"{origin}.{tail}" if tail else origin
            if target != sym:  # guard self-referential aliases
                return self.resolve_dotted(target)
        return []

    def resolve_dotted(self, dotted: str) -> list[str]:
        split = self._split_module(dotted)
        if split is None:
            return []
        mod, sym = split
        if not sym:
            return []
        return self._symbol(mod, sym)

    def resolve_call(
        self, caller: FunctionSummary, callee: str, recv_type: str | None
    ) -> list[str]:
        mod = self.modules.get(caller.module)
        if callee.startswith(_RETURNS_OF):
            factories = self.resolve_call(
                caller, callee[len(_RETURNS_OF):], recv_type
            )
            out: list[str] = []
            for fq in factories:
                factory = self._fn(fq)
                if factory is None:
                    continue
                fmod = self.modules.get(factory.module)
                if fmod is None:
                    continue
                for ret in factory.returns_funcs:
                    nested = f"{factory.name}.<locals>.{ret}"
                    if nested in fmod.functions:
                        out.append(f"{_mid(fmod)}:{nested}")
            return out
        tail = callee.rsplit(".", 1)[-1]
        if recv_type is not None:
            hit = self.resolve_dotted(f"{recv_type}.{tail}")
            if hit:
                return hit
        if callee.startswith("self.") and mod is not None:
            cls_name = caller.name.split(".")[0]
            cls = mod.classes.get(cls_name)
            if cls is None:
                return []
            rest = callee[len("self."):]
            head, _, more = rest.partition(".")
            if not more:
                if f"{cls_name}.{head}" in mod.functions:
                    return [f"{_mid(mod)}:{cls_name}.{head}"]
                return []
            attr_type = cls.attr_types.get(head)
            if attr_type is not None:
                return self.resolve_dotted(f"{attr_type}.{more}")
            return []
        if "." not in callee:
            if mod is None:
                return []
            # Innermost enclosing scope outward: nested siblings first.
            scopes = caller.name.split(".<locals>.")
            for depth in range(len(scopes), 0, -1):
                prefix = ".<locals>.".join(scopes[:depth])
                nested = f"{prefix}.<locals>.{callee}"
                if nested in mod.functions:
                    return [f"{_mid(mod)}:{nested}"]
            return self._symbol(mod, callee)
        hits = self.resolve_dotted(callee)
        if hits:
            return hits
        # ``Class.method`` / ``CONSTANT.method`` within the same module.
        if mod is not None:
            return self._symbol(mod, callee)
        return []

    def _fn(self, qualname: str) -> FunctionSummary | None:
        module, _, name = qualname.partition(":")
        mod = self.modules.get(module)
        if mod is None:
            return None
        return mod.functions.get(name)


def _mid(mod: ModuleSummary) -> str:
    return mod.module


def build_callgraph(summaries: dict[str, ModuleSummary]) -> CallGraph:
    """Resolve summaries (keyed by path) into a :class:`CallGraph`."""
    modules: dict[str, ModuleSummary] = {}
    for path in sorted(summaries):
        mod = summaries[path]
        if mod.module and mod.module not in modules:
            modules[mod.module] = mod
    functions: dict[str, FunctionSummary] = {}
    for mod in modules.values():
        for name, fn in mod.functions.items():
            functions[f"{mod.module}:{name}"] = fn

    graph = CallGraph(modules=modules, functions=functions)
    resolver = _Resolver(modules)
    graph.resolver = resolver

    # -- edges ----------------------------------------------------------------
    for qualname in sorted(functions):
        fn = functions[qualname]
        for site in fn.calls:
            for target in resolver.resolve_call(fn, site.callee, site.recv_type):
                if target == qualname:
                    continue  # recursion adds no lockset information
                edge = Edge(
                    caller=qualname,
                    callee=target,
                    line=site.line,
                    locks=site.locks,
                )
                graph.edges.append(edge)
                graph._out.setdefault(qualname, []).append(edge)
                graph._in.setdefault(target, []).append(edge)

    # -- thread entries -------------------------------------------------------
    def _escaping(qualname: str) -> list[str]:
        fn = functions[qualname]
        mod = modules.get(fn.module)
        if mod is None:
            return []
        return [
            f"{fn.module}:{fn.name}.<locals>.{esc}"
            for esc in fn.escapes
            if f"{fn.name}.<locals>.{esc}" in mod.functions
        ]

    spawn_sinks: dict[str, tuple[str, int]] = {}
    for qualname in sorted(functions):
        fn = functions[qualname]
        for spawn in fn.spawns:
            targets = (
                resolver.resolve_call(fn, spawn.callee, None)
                if spawn.callee
                else []
            )
            if not targets:
                # Unnamed or unresolvable spawn argument (a local loop
                # variable, a parameter): the task was built elsewhere.
                # Assume any escaping closure of the spawning function
                # may be it, and remember the function as a spawn sink —
                # callers' escaping closures are candidates too.
                targets = _escaping(qualname)
                spawn_sinks.setdefault(qualname, (spawn.via, spawn.line))
            for target in targets:
                graph.entries.setdefault(
                    target, (qualname, spawn.via, spawn.line)
                )
    # Indirect spawns: ``tasks.append(closure); self._run_tasks(tasks)``
    # — the sink receives callables it never named.  Every escaping
    # closure of a function that (one hop) calls a sink is conservatively
    # a thread entry, and so is every closure returned by a nested task
    # factory the caller invokes (``tasks.append(refine_task(name))``).
    for edge in list(graph.edges):
        sink = spawn_sinks.get(edge.callee)
        if sink is None:
            continue
        caller_fn = functions[edge.caller]
        targets = _escaping(edge.caller)
        for out in graph._out.get(edge.caller, ()):
            callee_fn = functions.get(out.callee)
            if callee_fn is None or not out.callee.startswith(
                f"{edge.caller}.<locals>."
            ):
                continue
            fmod = modules.get(callee_fn.module)
            for ret in callee_fn.returns_funcs:
                nested = f"{callee_fn.name}.<locals>.{ret}"
                if fmod is not None and nested in fmod.functions:
                    targets.append(f"{callee_fn.module}:{nested}")
        for target in targets:
            graph.entries.setdefault(target, (edge.caller, sink[0], edge.line))

    # -- domains (may-run-on, union over paths) -------------------------------
    domains: dict[str, set[str]] = {q: set() for q in functions}
    for entry in graph.entries:
        domains[entry].add(entry)
    for qualname in functions:
        if qualname not in graph.entries and not graph._in.get(qualname):
            domains[qualname].add(MAIN)
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            src = domains[edge.caller]
            dst = domains[edge.callee]
            if not src <= dst:
                dst |= src
                changed = True
    graph.domains = domains

    # -- entry locksets (must-hold, intersection over paths) ------------------
    universe = frozenset(
        lock
        for fn in functions.values()
        for acq in fn.acquires
        for lock in (acq.lock, *acq.held)
    )
    entry_locks: dict[str, frozenset[str]] = {}
    for qualname in functions:
        if qualname in graph.entries or not graph._in.get(qualname):
            entry_locks[qualname] = frozenset()
        else:
            entry_locks[qualname] = universe
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            incoming = entry_locks[edge.caller] | frozenset(edge.locks)
            # A spawned task never inherits its spawner's locks: entries
            # stay pinned at the empty set even when also called directly.
            if edge.callee in graph.entries:
                continue
            merged = entry_locks[edge.callee] & incoming
            if merged != entry_locks[edge.callee]:
                entry_locks[edge.callee] = merged
                changed = True
    graph.entry_locks = entry_locks
    return graph
