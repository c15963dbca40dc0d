"""Operator CLI: impact queries over a lineage catalog dump.

Usage::

    python -m repro.lineage report catalog.json
    python -m repro.lineage impact catalog.json --node <id>
    python -m repro.lineage impact catalog.json --part oda/power.gold_profiles/part-00000000.rcf
    python -m repro.lineage impact catalog.json --part ... --direction up

``report`` summarizes the catalog (node counts per kind, edge counts,
live part sets).  ``impact`` walks the flow closure from one node —
downstream by default ("which cached envelopes read this corrupted
part?"), upstream with ``--direction up`` ("which raw windows fed this
Gold row?") — and prints the result grouped by kind.  Catalogs are the
canonical JSON :meth:`repro.lineage.LineageCatalog.write_json` dumps.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.lineage.catalog import LineageCatalog, LineageFormatError

__all__ = ["main"]


def _describe(node: dict) -> str:
    coords = ":".join(node["coords"])
    flags = []
    if node.get("retired"):
        flags.append("retired")
    if node.get("advisories"):
        flags.append(f"advisories={len(node['advisories'])}")
    suffix = f"  ({', '.join(flags)})" if flags else ""
    return f"{node['id']}  {coords}{suffix}"


def _cmd_report(catalog: LineageCatalog, args, out) -> int:
    nodes = catalog.nodes()
    by_kind: dict[str, int] = {}
    for node in nodes:
        by_kind[node["kind"]] = by_kind.get(node["kind"], 0) + 1
    if args.format == "json":
        payload = {
            "nodes": len(nodes),
            "edges": len(catalog.edges()),
            "by_kind": by_kind,
            "live_parts": catalog.live_parts(),
        }
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    out.write(f"lineage catalog: {len(nodes)} nodes, {len(catalog.edges())} edges\n")
    for kind in sorted(by_kind):
        out.write(f"  {kind:<16} {by_kind[kind]}\n")
    live = catalog.live_parts()
    out.write(f"live parts ({len(live)}):\n")
    for key in live:
        out.write(f"  {key}\n")
    return 0


def _cmd_impact(catalog: LineageCatalog, args, out) -> int:
    if args.node:
        nid = args.node
    elif args.part:
        nid = catalog.part_node(args.bucket, args.part)
    else:
        sys.stderr.write("impact needs --node or --part\n")
        return 2
    start = catalog.node(nid)
    if start is None:
        sys.stderr.write(f"no such node {nid!r} in the catalog\n")
        return 1
    closure = (
        catalog.upstream(nid) if args.direction == "up" else catalog.downstream(nid)
    )
    grouped: dict[str, list[dict]] = {}
    for cid in closure:
        node = catalog.node(cid)
        if node is not None:
            grouped.setdefault(node["kind"], []).append(node)
    if args.format == "json":
        payload = {
            "node": start,
            "direction": args.direction,
            "closure": {
                kind: [n["id"] for n in nodes]
                for kind, nodes in sorted(grouped.items())
            },
        }
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return 0
    arrow = "upstream of" if args.direction == "up" else "downstream of"
    out.write(f"{arrow} {start['kind']} {_describe(start)}\n")
    if not grouped:
        out.write("  (nothing)\n")
    for kind in sorted(grouped):
        out.write(f"  {kind} ({len(grouped[kind])}):\n")
        for node in grouped[kind]:
            out.write(f"    {_describe(node)}\n")
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="python -m repro.lineage",
        description="Impact queries over a lineage catalog dump.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_report = sub.add_parser("report", help="summarize a catalog dump")
    p_report.add_argument("catalog", help="path to a catalog JSON dump")
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_impact = sub.add_parser("impact", help="flow closure from one node")
    p_impact.add_argument("catalog", help="path to a catalog JSON dump")
    p_impact.add_argument("--node", help="lineage node id to start from")
    p_impact.add_argument("--part", help="OCEAN part key to start from")
    p_impact.add_argument("--bucket", default="oda", help="OCEAN bucket (default: oda)")
    p_impact.add_argument(
        "--direction", choices=("down", "up"), default="down"
    )
    p_impact.add_argument("--format", choices=("text", "json"), default="text")
    args = parser.parse_args(argv)
    try:
        catalog = LineageCatalog.read_json(args.catalog)
    except (OSError, LineageFormatError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    if args.command == "report":
        return _cmd_report(catalog, args, out)
    return _cmd_impact(catalog, args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
