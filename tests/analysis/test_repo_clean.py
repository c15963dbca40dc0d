"""Tier-1 self-check: the repo's own source tree has zero unsuppressed
findings.  Any rule regression — or any new code that breaks a
determinism/concurrency/oracle/exception/layering invariant — fails
pytest directly, not just `make lint`."""

from __future__ import annotations

import os

from repro.analysis import Checker, make_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def test_src_tree_is_finding_free():
    checker = Checker(make_rules())
    findings = checker.run([SRC])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "unsuppressed findings:\n" + "\n".join(
        f.render() for f in active
    )


def test_every_rule_family_ran():
    # Guard against the self-check passing because rules were dropped.
    families = {rule.id.rstrip("0123456789") for rule in make_rules()}
    assert {"DET", "CONC", "ORACLE", "EXC", "IMP", "RACE"} <= families


def test_race_rules_registered():
    # The interprocedural pass must stay in the default pack: the
    # self-check above is only meaningful if RACE001-003 and DET010
    # actually ran over the tree.
    ids = {rule.id for rule in make_rules()}
    assert {"RACE001", "RACE002", "RACE003", "DET010"} <= ids


def test_src_suppressions_name_an_invariant():
    # Zero *unexplained* suppressions: every race pragma in the tree
    # must carry a `-- reason` naming the protecting invariant.
    import re

    pat = re.compile(r"#\s*repro:\s*ignore\[(RACE[^\]]*)\](.*)")
    bad = []
    for dirpath, _, names in os.walk(SRC):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    m = pat.search(line)
                    if m and "--" not in m.group(2):
                        bad.append(f"{path}:{lineno}")
    assert bad == [], f"race suppressions without a stated invariant: {bad}"


def test_data_plane_spawns_nothing_and_waives_no_race():
    # One execution model (DESIGN.md §8): outside the analysis package
    # itself, src constructs no pool or thread, so there is no spawn
    # site for a RACE001 waiver to describe.
    import ast

    spawners = {"ThreadPoolExecutor", "ProcessPoolExecutor", "Thread"}
    bad = []
    for dirpath, _, names in os.walk(os.path.join(SRC, "repro")):
        if os.path.join("repro", "analysis") in dirpath:
            continue
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            if "repro: ignore[RACE001]" in source:
                bad.append(f"{path}: RACE001 pragma")
            for node in ast.walk(ast.parse(source, path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "attr", getattr(func, "id", None))
                if called in spawners:
                    bad.append(f"{path}:{node.lineno}: {called}(...)")
    assert bad == []
