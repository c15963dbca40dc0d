#!/usr/bin/env python3
"""Alternating parent/change pairs of one ``benchmarks/full`` workload.

    python3 tools/ab_pairs.py A_DIR B_DIR --workload W --seed S --pairs N

Per pair, runs ``benchmarks/full/run.py --trace 0`` once in each
checkout (A the parent, B the change), alternating which side goes
first, and reads the last-line JSON of each run.  Prints, for every
end-to-end metric of ``A_DIR/BENCHMARK.json``, each run, both medians
and quartiles and how many pairs the change won (a tie wins for
neither), then the row in the shape of the CHANGES.md tables.  Exits
non-zero if any run says ``correct: false``.  Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmarks/full/run.py", "--workload", workload]
        + ["--seed", str(seed), "--trace", "0"],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: the run printed nothing\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(xs: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (of one run: that run, three times)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return statistics.median(xs), q1, q3


def summarize(
    metrics: list[dict], label: str, a_runs: list[dict], b_runs: list[dict]
) -> tuple[list[str], bool]:
    """The report for paired runs (``a_runs[i]`` against ``b_runs[i]``)
    and whether every run was correct."""
    out, cells = [], []
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in a_runs]
        b = [r["metrics"][name]["value"] for r in b_runs]
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        out.append(f"{name} ({m['unit']}, {m['better']} is better)")
        for side, xs in (("A", a), ("B", b)):
            med, q1, q3 = spread(xs)
            runs = " ".join(f"{x:.6g}" for x in xs)
            out.append(f"  {side}: {runs}  median {med:.6g} [{q1:.6g}, {q3:.6g}]")
        out.append(f"  change wins {wins}/{len(a)}")
        if len(set(a + b)) == 1:
            cells.append(f"{a[0]:.6g} =")
        else:
            cells.append(f"{spread(a)[0]:.6g} → {spread(b)[0]:.6g} ({wins}/{len(a)})")
    ok = all(r["correct"] for r in a_runs + b_runs)
    failed = sum(r["failed"] for r in a_runs + b_runs)
    out.append(f"correct on every run: {ok}; failed operations: {failed}")
    names = [m["name"] for m in metrics]
    out.append("| workload (seed, pairs) | " + " | ".join(names) + " |")
    out.append("|---" * (len(names) + 1) + "|")
    out.append(f"| {label} | " + " | ".join(cells) + " |")
    return out, ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path, help="parent checkout")
    parser.add_argument("b_dir", type=Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    bench = json.loads((args.a_dir / "BENCHMARK.json").read_text())
    sides = {"a": (args.a_dir, []), "b": (args.b_dir, [])}
    for i in range(args.pairs):
        for side in "ab" if i % 2 == 0 else "ba":
            checkout, runs = sides[side]
            runs.append(run_once(checkout, args.workload, args.seed))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    label = f"{args.workload} ({args.seed}, {args.pairs})"
    lines, ok = summarize(
        bench["end_to_end"], label, sides["a"][1], sides["b"][1]
    )
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
