"""Shared helpers for the analyzer tests: inline-fixture checking and a
builder for on-disk fixture trees (the CLI operates on real paths)."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import Checker, make_rules


@pytest.fixture
def check():
    """Run all rules over an inline snippet under a chosen module name."""

    def _check(source: str, module: str = "repro.pipeline.fixture"):
        checker = Checker(make_rules())
        checker.check_source(textwrap.dedent(source), "fixture.py", module=module)
        return checker.findings

    return _check


@pytest.fixture
def rule_ids(check):
    """Like ``check`` but returns just the unsuppressed rule ids."""

    def _ids(source: str, module: str = "repro.pipeline.fixture"):
        return sorted(
            f.rule_id for f in check(source, module) if not f.suppressed
        )

    return _ids


@pytest.fixture
def make_tree(tmp_path):
    """Write ``{relative_path: source}`` files under a tmp ``repro`` tree
    and return the root directory to point the CLI at."""

    def _make(files: dict[str, str]):
        root = tmp_path / "fixture_src"
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        # every package dir needs an __init__.py for realism (the
        # checker itself does not require it)
        for sub in root.rglob("*"):
            if sub.is_dir() and not (sub / "__init__.py").exists():
                (sub / "__init__.py").write_text("", encoding="utf-8")
        return root

    return _make
