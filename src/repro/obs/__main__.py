"""Operator CLI: render a JSONL trace/metric dump as a readable report.

Usage::

    python -m repro.obs report obs_trace.jsonl            # tree + meters
    python -m repro.obs report obs_trace.jsonl --format json
    python -m repro.obs report obs_trace.jsonl --depth 3

``make obs-report`` produces a dump from a seeded end-to-end run (via
``examples/self_observability.py``) and pipes it through this command.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.exporters import build_trees, read_jsonl

__all__ = ["main"]


def _print_tree(node: dict, depth: int, max_depth: int, out) -> None:
    attrs = node.get("attrs") or {}
    attr_txt = (
        " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
        if attrs
        else ""
    )
    status = "" if node.get("status") == "ok" else f"  !{node.get('status')}"
    out.write(
        f"{'  ' * depth}{node['name']:<{max(1, 32 - 2 * depth)}} "
        f"{node['duration_s'] * 1e3:9.3f} ms{attr_txt}{status}\n"
    )
    if depth + 1 < max_depth:
        for child in node["children"]:
            _print_tree(child, depth + 1, max_depth, out)


def _aggregate(span_lines: list[dict]) -> list[tuple[str, int, float, float]]:
    agg: dict[str, list[float]] = {}
    for line in span_lines:
        agg.setdefault(line["name"], []).append(line["duration_s"])
    return sorted(
        (
            (name, len(ds), sum(ds), max(ds))
            for name, ds in agg.items()
        ),
        key=lambda row: -row[2],
    )


def report(path: Path, fmt: str, depth: int, out=None) -> int:
    """Render the report; returns a process exit code."""
    out = out or sys.stdout
    if not path.exists():
        print(
            f"error: no trace dump at {path} (run `make obs-report` or "
            "examples/self_observability.py first)",
            file=sys.stderr,
        )
        return 2
    lines = read_jsonl(path)
    spans = [l for l in lines if l.get("kind") == "span"]
    meters = [l for l in lines if l.get("kind") in ("counter", "gauge")]
    dropped = sum(
        l.get("count", 0) for l in lines if l.get("kind") == "dropped_spans"
    )
    trees = build_trees(spans)
    if fmt == "json":
        out.write(
            json.dumps(
                {
                    "traces": trees,
                    "span_totals": [
                        {
                            "name": n,
                            "calls": c,
                            "total_s": t,
                            "max_s": m,
                        }
                        for n, c, t, m in _aggregate(spans)
                    ],
                    "meters": meters,
                    "dropped_spans": dropped,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return 0
    traces = sorted({s["trace_id"] for s in spans})
    out.write(
        f"obs report: {len(spans)} spans in {len(traces)} trace(s), "
        f"{len(meters)} meter(s)\n"
    )
    if dropped:
        out.write(f"  WARNING: {dropped} spans dropped by the buffer bound\n")
    for root in trees:
        out.write(f"\ntrace {root['trace_id']}\n")
        _print_tree(root, 1, depth, out)
    if spans:
        out.write("\nper-span totals (hottest first)\n")
        for name, calls, total, worst in _aggregate(spans)[:20]:
            out.write(
                f"  {name:<34} calls={calls:<6d} total={total * 1e3:9.3f} ms"
                f"  max={worst * 1e3:8.3f} ms\n"
            )
    if meters:
        out.write("\ncounters & gauges\n")
        for m in meters:
            out.write(f"  {m['name']:<44} {m['value']:.6g}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rep = sub.add_parser(
        "report", help="render a JSONL trace/metric dump as a report"
    )
    rep.add_argument(
        "trace",
        nargs="?",
        type=Path,
        default=Path("obs_trace.jsonl"),
        help="JSONL dump written by repro.obs.write_jsonl "
        "(default: ./obs_trace.jsonl)",
    )
    rep.add_argument(
        "--format", choices=("text", "json"), default="text", dest="fmt"
    )
    rep.add_argument(
        "--depth",
        type=int,
        default=6,
        help="maximum span-tree depth to print (text format)",
    )
    args = parser.parse_args(argv)
    if args.depth < 1:
        parser.error("--depth must be >= 1")
    try:
        return report(args.trace, args.fmt, args.depth)
    except BrokenPipeError:
        # Piping through `head` closes stdout early; that's fine.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
