"""Command line of the full-path benchmark.

One workload, one run (what ``BENCHMARK.json``'s ``command`` invokes)::

    python3 benchmarks/full/run.py --workload query_panel --seed 7 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record goes to ``benchmarks/full/out/``.  Without ``--workload`` it runs
all four workloads, untraced then traced, each in a fresh child
interpreter, one at a time, and writes a suite file; ``compare A B``
judges two suite files.  See the README beside this file.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    from benchmarks.full import report, spec

    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: compare A.json B.json")
        return report.compare(argv[1], argv[2])

    benchmark = spec.load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in benchmark["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="self-test shapes (numbers mean nothing)"
    )
    parser.add_argument(
        "--seeds", help="suite only: comma-separated seeds, one run of every workload each"
    )
    parser.add_argument("--out", type=Path, help="suite only: result file")
    args = parser.parse_args(argv)
    spec.OUT_DIR.mkdir(exist_ok=True)

    if args.workload is None:
        seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [args.seed]
        out = args.out or spec.OUT_DIR / "suite.json"
        suite = report.run_suite(seeds, args.seconds, args.smoke, out)
        print(f"wrote {out}")
        return 0 if all(w["correct"] for w in suite["workloads"].values()) else 1

    from benchmarks.full.measure import run_once
    from benchmarks.full.trace import write_spans

    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result["fingerprint"] = report.fingerprint(result.pop("modes"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans")
    if spans is not None:
        write_spans(spans, spec.OUT_DIR / f"{stem}.spans.json")
    with open(spec.OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} reps={result['reps']} "
          f"digest={result['digest']} modes={result['fingerprint']['modes']}")
    for name, m in result["metrics"].items():
        quartiles = f"  q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}" if "n" in m else ""
        print(f"{name:34s} {m['value']:16.6f} {m['unit']}{quartiles}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
