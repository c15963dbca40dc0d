"""CLI: ``python -m repro.analysis [options] paths...`` (also installed
as the ``repro-lint`` console script).

Exit status contract (pinned by ``tests/analysis/test_cli.py``): 0 when
no unsuppressed findings, 1 when any remain, 2 on usage or internal
errors.  JSON schema (``--format json``)::

    {
      "version": 3,
      "paths": ["src"],
      "rules": ["DET001", ...],          # rules that ran
      "counts": {"total": N,             # all findings incl. suppressed
                 "suppressed": M,
                 "errors": E, "warnings": W},   # unsuppressed by severity
      "findings": [{"file": ..., "line": ..., "rule": ...,
                    "rule_family": "DET"|"CONC"|"ORACLE"|...,
                    "severity": "error"|"warning",
                    "message": ..., "suppressed": bool}, ...]
    }

Every run parses every file: a cold pass over ``src`` is about a
second, so nothing is cached between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.engine import Checker
from repro.analysis.findings import ERROR, WARNING, rule_family
from repro.analysis.rules import ALL_RULE_CLASSES, select_rules

__all__ = ["main", "build_parser", "run"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker: determinism (DET), concurrency "
            "(CONC), fast-path oracles "
            "(ORACLE), exception hygiene (EXC) and layering (IMP)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: src, else cwd)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids or families to run (e.g. DET,CONC001)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="IDS",
        help="comma-separated rule ids or families to skip",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id and description, then exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print the full documentation for one rule id, then exit",
    )
    return parser


def _split_tokens(values: list[str]) -> list[str]:
    out: list[str] = []
    for value in values:
        out.extend(tok for tok in value.replace(",", " ").split() if tok)
    return out


def _explain(rule_id: str, out) -> int:
    wanted = rule_id.strip().upper()
    for cls in ALL_RULE_CLASSES:
        if cls.id.upper() != wanted:
            continue
        print(f"{cls.id} ({cls.name}) — severity: {cls.severity}", file=out)
        print(f"\n{cls.description}", file=out)
        doc = (cls.__doc__ or "").strip()
        if doc:
            print(f"\n{doc}", file=out)
        fam_doc = (sys.modules[cls.__module__].__doc__ or "").strip()
        if fam_doc:
            print(f"\n[{rule_family(cls.id)} family]\n{fam_doc}", file=out)
        print(
            "\nSuppress with: "
            f"# repro: ignore[{cls.id}] -- <invariant that makes it safe>",
            file=out,
        )
        return 0
    print(f"error: unknown rule id {rule_id!r}", file=sys.stderr)
    return 2


def run(argv: list[str] | None = None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULE_CLASSES:
            print(f"{cls.id:10s} {cls.severity:7s} {cls.description}", file=out)
        return 0

    if args.explain:
        return _explain(args.explain, out)

    select = _split_tokens(args.select)
    ignore = _split_tokens(args.ignore)
    rules = select_rules(select or None, ignore or None)
    if not rules:
        print("error: --select/--ignore left no rules to run", file=sys.stderr)
        return 2

    paths = args.paths or (["src"] if os.path.isdir("src") else ["."])
    checker = Checker(rules)
    try:
        findings = checker.run(paths)
    except Exception as exc:  # noqa: BLE001 — contract: internal error => 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    active = [f for f in findings if not f.suppressed]

    if args.format == "json":
        payload = {
            "version": 3,
            "paths": paths,
            "rules": [rule.id for rule in rules],
            "counts": {
                "total": len(findings),
                "suppressed": len(findings) - len(active),
                "errors": sum(1 for f in active if f.severity == ERROR),
                "warnings": sum(1 for f in active if f.severity == WARNING),
            },
            "findings": [f.as_dict() for f in findings],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        for finding in active:
            print(finding.render(), file=out)
        suppressed = len(findings) - len(active)
        tail = f" ({suppressed} suppressed)" if suppressed else ""
        if active:
            print(
                f"{len(active)} finding(s) in {len(set(f.file for f in active))}"
                f" file(s){tail}",
                file=out,
            )
        else:
            print(f"clean: no findings{tail}", file=out)

    return 1 if active else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
