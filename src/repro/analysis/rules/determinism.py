"""DET — determinism rules for the data plane.

The data plane is only trustworthy because fast path, reference path,
replays and sharded runs are byte-identical; that guarantee dies the
moment a kernel consults the wall clock or an unseeded RNG.  These
rules ban both inside the data-plane packages
(``config.DATA_PLANE_PACKAGES``).  Monotonic duration timers
(``time.perf_counter``/``time.monotonic``) stay legal — they feed the
perf registry, never data.

DET002 bans *unseeded* generators syntactically; it cannot tell
``default_rng(derive_seed(seed, name))`` from ``default_rng(id(self))``
— both "have an argument".  **DET010** closes that hole with a local
taint lattice over the enclosing function.  Seed-derived values are:
literals; parameters named ``seed``-ish; ``*seed*`` attributes
(``self._seed``, ``config.seed``); calls to ``SEED_SOURCE_FUNCTIONS``
(``derive_seed``); ``SEED_PROPAGATING_CALLS`` (casts, reductions),
arithmetic, tuples and f-strings over seed-derived values; and locals
assigned from any of those earlier in the function.  Anything else
reaching a generator constructor's seed argument — including the return
value of any other call — is a finding: a helper that derives seeds
belongs in ``SEED_SOURCE_FUNCTIONS``, where the trust is written down.
"""

from __future__ import annotations

import ast

from repro.analysis.config import (
    DATA_PLANE_PACKAGES,
    RNG_ALLOWLIST_MODULES,
    SEED_PROPAGATING_CALLS,
    SEED_SOURCE_FUNCTIONS,
)
from repro.analysis.engine import ModuleContext, Rule, all_args

__all__ = ["WallClock", "UnseededRandom", "UntaintedSeedSource"]

#: Wall-clock reads that leak real time into data.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: numpy.random entry points that are fine *with an explicit seed/bit
#: generator argument* (flagged only when called with no arguments).
_NP_SEEDABLE = frozenset(
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
    }
)


def _applies(ctx: ModuleContext) -> bool:
    if ctx.top_package() not in DATA_PLANE_PACKAGES:
        return False
    return not any(
        ctx.module == m or ctx.module.startswith(m + ".")
        for m in RNG_ALLOWLIST_MODULES
    )


class WallClock(Rule):
    id = "DET001"
    name = "wall-clock-in-data-plane"
    description = (
        "data-plane code must not read the wall clock (time.time, "
        "datetime.now, ...); use the SimClock or monotonic timers"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not _applies(ctx):
            return
        qual = ctx.qualified_name(node.func)
        if qual in _WALL_CLOCK:
            ctx.report(
                self,
                node,
                f"wall-clock call {qual}() in data-plane module "
                f"{ctx.module}; results become run-dependent",
            )


class UnseededRandom(Rule):
    id = "DET002"
    name = "unseeded-rng-in-data-plane"
    description = (
        "data-plane code must draw randomness from an explicitly seeded "
        "numpy Generator (repro.util.rng), never global random state"
    )
    node_types = (ast.Call,)

    def visit(self, node: ast.Call, ctx: ModuleContext) -> None:
        if not _applies(ctx):
            return
        qual = ctx.qualified_name(node.func)
        if qual is None:
            return
        if qual in _NP_SEEDABLE:
            if not node.args and not node.keywords:
                ctx.report(
                    self,
                    node,
                    f"{qual}() without an explicit seed in {ctx.module}; "
                    "derive one via repro.util.rng",
                )
            return
        if qual.startswith("numpy.random."):
            # Any other numpy.random attribute call is the legacy
            # global-state API (np.random.rand, np.random.seed, ...).
            ctx.report(
                self,
                node,
                f"global-state RNG call {qual}() in {ctx.module}; "
                "use a seeded numpy Generator from repro.util.rng",
            )
            return
        if qual == "random.Random":
            if not node.args and not node.keywords:
                ctx.report(
                    self,
                    node,
                    "random.Random() without a seed in data-plane code",
                )
            return
        if qual == "random.SystemRandom":
            ctx.report(
                self, node, "random.SystemRandom is never reproducible"
            )
            return
        if qual.startswith("random."):
            ctx.report(
                self,
                node,
                f"stdlib global-state RNG call {qual}() in {ctx.module}; "
                "use a seeded numpy Generator from repro.util.rng",
            )


#: Seedable constructors whose seed argument DET010 checks.
_SEEDED_CTORS = _NP_SEEDABLE | {"random.Random"}

#: Parameter names trusted to carry a seed.
_SEEDISH = ("seed", "root_seed")

_SEED_SOURCE_TAILS = frozenset(
    name.rsplit(".", 1)[-1] for name in SEED_SOURCE_FUNCTIONS
)


def _is_seedish(name: str) -> bool:
    return (
        name in _SEEDISH
        or name.endswith(("_seed", "_seeds"))
        or name.startswith("seed_")
    )


class UntaintedSeedSource(Rule):
    id = "DET010"
    name = "untainted-seed-source"
    description = (
        "a data-plane RNG is constructed from a seed not derived from "
        "derive_seed/config seeds within the constructing function"
    )
    node_types = (ast.Assign, ast.Call)

    def begin_module(self, ctx: ModuleContext) -> None:
        #: id(function node) -> local names known to hold a seed.
        self._seeded: dict[int, set[str]] = {}

    def visit(self, node: ast.AST, ctx: ModuleContext) -> None:
        if not _applies(ctx):
            return
        if isinstance(node, ast.Assign):
            # Document order is statement order: a local counts as a
            # seed from the assignment on.
            target = node.targets[0]
            if len(node.targets) == 1 and isinstance(target, ast.Name):
                seeded = self._seeded_names(ctx)
                if self._is_seed(node.value, seeded, ctx):
                    seeded.add(target.id)
            return
        qual = ctx.qualified_name(node.func)
        if qual not in _SEEDED_CTORS or not (node.args or node.keywords):
            return  # the unseeded form is DET002's finding
        arg = node.args[0] if node.args else node.keywords[0].value
        if not self._is_seed(arg, self._seeded_names(ctx), ctx):
            ctx.report(
                self,
                node,
                f"{qual} in {ctx.module} is seeded from a value not "
                "derived from derive_seed/config seeds; route the seed "
                "through repro.util.rng",
            )

    def _seeded_names(self, ctx: ModuleContext) -> set[str]:
        """The enclosing function's seed-holding locals (its seed-ish
        parameters to start with; nothing at module scope)."""
        func = ctx.enclosing_function()
        seeded = self._seeded.get(id(func))
        if seeded is None:
            args = all_args(func.args) if func is not None else ()
            seeded = {a.arg for a in args if _is_seedish(a.arg)}
            self._seeded[id(func)] = seeded
        return seeded

    def _is_seed(
        self, expr: ast.AST, seeded: set[str], ctx: ModuleContext
    ) -> bool:
        def every(exprs) -> bool:
            return all(self._is_seed(e, seeded, ctx) for e in exprs)

        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in seeded
        if isinstance(expr, ast.Attribute):
            # ``config.seed`` / ``self._seed.spawn_key``: a plain dotted
            # chain ending in, or rooted at ``self.`` plus, a seed-ish name.
            parts = (ctx.qualified_name(expr) or "").split(".")
            return _is_seedish(parts[-1].lstrip("_")) or (
                parts[0] == "self" and _is_seedish(parts[1].lstrip("_"))
            )
        if isinstance(expr, ast.BinOp):
            return every((expr.left, expr.right))
        if isinstance(expr, ast.UnaryOp):
            return every((expr.operand,))
        if isinstance(expr, (ast.Tuple, ast.List)):
            return every(expr.elts)
        if isinstance(expr, ast.JoinedStr):
            return every(
                v.value
                for v in expr.values
                if isinstance(v, ast.FormattedValue)
            )
        if isinstance(expr, ast.Call):
            callee = ctx.qualified_name(expr.func)
            if callee is None:
                return False
            if (
                callee in SEED_SOURCE_FUNCTIONS
                or callee.rsplit(".", 1)[-1] in _SEED_SOURCE_TAILS
            ):
                return True
            return callee in SEED_PROPAGATING_CALLS and every(expr.args)
        return False
