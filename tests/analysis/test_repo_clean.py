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
