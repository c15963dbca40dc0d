"""Tier-1 self-check: the repo's own source tree has zero unsuppressed
findings.  Any rule regression — or any new code that breaks a
determinism/concurrency/oracle/exception/layering invariant — fails
pytest directly, not just `make lint`."""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize

from repro.analysis import Checker, make_rules, rule_family
from repro.analysis.engine import all_args, is_contextmanager

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def test_src_tree_is_finding_free():
    checker = Checker(make_rules())
    findings = checker.run([SRC])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "unsuppressed findings:\n" + "\n".join(
        f.render() for f in active
    )


def test_registered_rule_ids_are_pinned():
    # The self-check above only means what the rules that ran mean: a
    # dropped (or silently added) rule must fail tier-1, not shrink it.
    assert [rule.id for rule in make_rules()] == [
        "DET001", "DET002", "DET010",
        "CONC001", "CONC002", "CONC003",
        "ORACLE001", "ORACLE002",
        "EXC001", "EXC002", "EXC003", "EXC004",
        "IMP001",
    ]  # fmt: skip


def _src_files():
    for dirpath, _, names in os.walk(SRC):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    yield path, fh.read()


def test_src_suppressions_name_an_invariant():
    # Every pragma in the tree must waive something that exists (a
    # registered id or family) and say why (`-- reason`).
    known = {rule.id for rule in make_rules()}
    known |= {rule_family(rule_id) for rule_id in known}
    pat = re.compile(r"#\s*repro:\s*ignore\[([^\]]*)\](.*)")
    bad = []
    for path, source in _src_files():
        # Real comments only: docstrings that *describe* the pragma
        # (this package has several) waive nothing.
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            m = pat.search(tok.string) if tok.type == tokenize.COMMENT else None
            if m is None:
                continue
            ids = {part.strip().upper() for part in m.group(1).split(",")}
            if not ids <= known or not re.match(r"\s*--\s*\S", m.group(2)):
                bad.append(f"{path}:{tok.start[0]}")
    assert bad == [], f"pragmas naming no rule or no invariant: {bad}"


def test_data_plane_spawns_nothing_and_waives_no_race():
    # One execution model (DESIGN.md §8): src constructs no pool, thread
    # or process and forks nothing; scale-out is by partition and by
    # process, outside the library.  This is the guard RACE001/RACE002
    # were deleted against — a spawn site in src reopens that decision
    # (and a RACE pragma would waive a rule that no longer runs).
    spawners = {
        "ThreadPoolExecutor", "ProcessPoolExecutor", "Thread",
        "Process", "Pool", "fork",
    }  # fmt: skip
    bad = []
    for path, source in _src_files():
        if "repro: ignore[RACE" in source:
            bad.append(f"{path}: RACE pragma")
        for node in ast.walk(ast.parse(source, path)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [alias.name for alias in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                if any(m.startswith("concurrent.futures") for m in modules):
                    bad.append(f"{path}:{node.lineno}: concurrent.futures")
            elif isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called in spawners:
                    bad.append(f"{path}:{node.lineno}: {called}(...)")
    assert bad == []


def test_storage_reads_part_manifests_in_one_place():
    # One owner for what is derived from an OCEAN part (DESIGN.md §15,
    # "The part table"): manifest entries are read off ``user_meta``
    # and memoized only by the part's record, so nothing else in the
    # storage package can hold a parse past its part.
    storage = os.path.join(SRC, "repro", "storage")
    bad = [
        f"{os.path.relpath(path, storage)}: {needle}"
        for path, source in _src_files()
        if path.startswith(storage + os.sep)
        and os.path.basename(path) != "parts.py"
        for needle in ("user_meta.get(", "lru_cache")
        if needle in source
    ]
    assert bad == []


def test_one_fast_path_switch():
    # ``repro.perf.baseline_mode()`` is the only way to select the
    # reference path (DESIGN.md §8, "Harness"): no module outside
    # repro.perf grows a toggle of its own, and no option, field or
    # constructor parameter selects emission or polling.
    perf = os.path.join(SRC, "repro", "perf") + os.sep
    retired = {"batched", "reference_emit"}
    bad = []
    for path, source in _src_files():
        tree = ast.parse(source, path)
        for node in tree.body:
            if (
                isinstance(node, ast.FunctionDef)
                and is_contextmanager(node)
                and node.name.endswith(("_disabled", "_reference_mode"))
                and not path.startswith(perf)
            ):
                bad.append(f"{path}:{node.lineno}: toggle {node.name}")
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            names = [
                (stmt.lineno, stmt.target.id)
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
            ]
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
                    names += [(a.lineno, a.arg) for a in all_args(stmt.args)]
            bad += [
                f"{path}:{line}: {cls.name}.{name}"
                for line, name in names
                if name in retired
            ]
    assert bad == []


def test_one_metrics_registry():
    # One meter registry (DESIGN.md §8, "Harness"): everything src
    # records lands in ``repro.obs.METRICS``.  ``repro.perf.PERF`` is
    # only a second name for it, kept for the frozen benchmark harness;
    # no module but the one that defines the alias names it, and
    # ``repro.perf`` grows no registry class of its own.
    import repro.obs
    import repro.perf

    assert repro.perf.PERF is repro.obs.METRICS
    perf = os.path.join(SRC, "repro", "perf") + os.sep
    alias = os.path.join(perf, "__init__.py")
    bad = []
    for path, source in _src_files():
        if path.startswith(perf):
            bad += [
                f"{path}:{node.lineno}: class {node.name}"
                for node in ast.walk(ast.parse(source, path))
                if isinstance(node, ast.ClassDef)
            ]
        if path != alias and re.search(r"\bPERF\b", source):
            bad.append(f"{path}: names PERF")
    assert bad == []


def test_one_write_path_memo():
    # No memo on the write path, one on the read path (DESIGN.md §8,
    # "Content-addressed memos"): the row-group cache.  The
    # ``choose_encoding``, ``compress`` and ``factorize`` memos were
    # deleted when the benchmark workloads were shown to (almost) never
    # hit them, and the RCF writer's chunk memo when a paired wall-time
    # run showed it bought no time.  A module-level LRU, or a content
    # digest in the data plane other than an RCF file's cache token
    # (``RcfReader.digest``, what the row-group cache keys on), grows
    # one back.
    from repro.columnar import compression

    assert not hasattr(compression, "_memo")
    allowed = {("query", "cache.py"): "_cache"}
    token = (("columnar", "file_format.py"), ["digest"])
    data_plane = ("columnar", "pipeline", "query")
    bad = []
    for path, source in _src_files():
        package, module = os.path.relpath(path, SRC).split(os.sep)[-2:]
        tree = ast.parse(source, path)
        for node in tree.body:
            value = getattr(node, "value", None)
            if not (
                isinstance(node, (ast.Assign, ast.AnnAssign))
                and isinstance(value, ast.Call)
                and getattr(value.func, "id", None) == "OrderedDict"
            ):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if allowed.get((package, module)) != getattr(target, "id", None):
                    bad.append(f"{path}:{node.lineno}: module-level LRU")
        if package not in data_plane or "blake2b" not in source:
            continue
        # The functions that name blake2b, innermost first; "" at
        # module level.
        sites = [
            fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(
                isinstance(n, ast.Attribute) and n.attr == "blake2b"
                for n in ast.walk(fn)
            )
        ]
        if ((package, module), sites) != token or source.count("blake2b") != 1:
            bad.append(f"{path}: content digest")
    assert bad == []


def test_one_produce_path():
    # The broker is sized to its traffic (DESIGN.md §8, "Stream
    # traffic"): one whole-window batch per topic per window, so one
    # produce path.  A batch produce API, the profiling hooks nothing
    # called, or a framework that reads the fast-path switch to pick a
    # poll shape would each be machinery no measurement pays for.
    batch_api = {"produce_many", "send_many", "append_many"}
    packages = tuple(
        os.path.join(SRC, "repro", name) + os.sep for name in ("stream", "faults")
    )
    bad = []
    for path, source in _src_files():
        if not path.startswith(packages):
            continue
        for cls in ast.walk(ast.parse(source, path)):
            if isinstance(cls, ast.ClassDef):
                bad += [
                    f"{path}:{stmt.lineno}: {cls.name}.{stmt.name}"
                    for stmt in cls.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name in batch_api
                ]
    if os.path.exists(os.path.join(SRC, "repro", "obs", "profile.py")):
        bad.append("repro/obs/profile.py exists")
    framework = os.path.join(SRC, "repro", "core", "framework.py")
    with open(framework, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), framework)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    if "repro.perf.baseline" in imported:
        bad.append(f"{framework}: imports repro.perf.baseline")
    assert bad == []
