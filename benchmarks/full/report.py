"""Result files: host fingerprint, the all-workloads suite, ``compare``.

A *suite file* holds, per workload, the values of every metric over the
suite's runs (one fresh child interpreter per run, one at a time) under
one host fingerprint.  ``compare`` reads two of them and judges each
(workload, end-to-end metric) against the bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from statistics import median

import numpy as np

from benchmarks.full import spec

__all__ = ["fingerprint", "suite_entry", "run_suite", "compare"]


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=spec.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(modes: dict) -> dict:
    """Where and how a result was measured."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "modes": modes,
    }


def _spread(values: list[float]) -> dict:
    q1, q3 = spec.quartiles(values)
    mid = median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / mid if mid else 0.0,
    }


def _run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    out_path = spec.OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [
        sys.executable, str(spec.HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=spec.ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def suite_entry(benchmark: dict, untraced: list[dict], traced: list[dict]) -> dict:
    """One workload's part of a suite file, from its runs' records."""
    runs = untraced + traced
    return {
        "shape": runs[0]["shape"],
        "digests": sorted({r["digest"] for r in runs}),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "toggle_table": traced[-1]["toggle_table"],
        **{
            kind: {
                m["name"]: {
                    "unit": m["unit"],
                    "values": [r["metrics"][m["name"]]["value"] for r in rs],
                    **_spread([r["metrics"][m["name"]]["value"] for r in rs]),
                }
                for m in benchmark[kind]
            }
            for kind, rs in (("end_to_end", untraced), ("per_layer", traced))
        },
    }


def run_suite(seeds: list[int], seconds: float, smoke: bool, out_path) -> dict:
    """Every workload, untraced then traced, once per seed in ``seeds``."""
    benchmark = spec.load_benchmark()
    suite: dict = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        untraced, traced = (
            [_run_child(workload, seed, seconds, trace, smoke) for seed in seeds]
            for trace in (0, 1)
        )
        suite.setdefault("fingerprint", untraced[0]["fingerprint"])
        entry = suite["workloads"][workload] = suite_entry(benchmark, untraced, traced)
        print_suite_rows(workload, entry)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(suite, fh, separators=(",", ":"))
    return suite


def print_suite_rows(workload: str, entry: dict) -> None:
    """The end-to-end rows of one workload, with quartiles and count."""
    for name, m in entry["end_to_end"].items():
        print(
            f"{workload:15s} {name:26s} {m['median']:14.4f} {m['unit']:6s}"
            f" q1={m['q1']:.4f} q3={m['q3']:.4f} n={m['n']}"
            f" spread={m['spread']:.1%}"
        )


#: What two files must share before their numbers are comparable.
COMPARABLE = ("cpu_count", "machine", "python", "numpy", "modes")


def compare(path_a, path_b) -> int:
    """Print one row per (workload, end-to-end metric); 1 if any is worse.

    ``ratio`` is B's median over A's, A being the base.  A metric whose
    spread (interquartile range over median, either side) exceeds its
    bound is ``unresolved`` unless every run of one side beats every
    run of the other.
    """
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    unlike = [
        k for k in COMPARABLE if a["fingerprint"][k] != b["fingerprint"][k]
    ] + [
        f"shape:{w}"
        for w in a["workloads"]
        if a["workloads"][w]["shape"] != b["workloads"].get(w, {}).get("shape")
    ]
    if unlike:
        print(f"refusing to compare unlike hosts/modes/shapes: {unlike}")
        return 2
    worse = 0
    print(
        f"{'workload':15s} {'metric':26s} {'A median':>12s} {'B median':>12s}"
        f" {'B/A (base A)':>13s} {'bound':>6s}  verdict"
    )
    for metric in spec.load_benchmark()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        for workload in a["workloads"]:
            ma = a["workloads"][workload]["end_to_end"][name]
            mb = b["workloads"][workload]["end_to_end"][name]
            gain = sign * (mb["median"] - ma["median"]) / ma["median"]
            va = [sign * v for v in ma["values"]]
            vb = [sign * v for v in mb["values"]]
            separated = min(vb) > max(va) or max(vb) < min(va)
            if max(ma["spread"], mb["spread"]) > bound and not separated:
                verdict = "unresolved"
            elif gain < -bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "better" if gain > bound else "same"
            print(
                f"{workload:15s} {name:26s} {ma['median']:12.4f} {mb['median']:12.4f}"
                f" {mb['median'] / ma['median']:13.3f} {bound:6.0%}  {verdict}"
                f"  [A q1={ma['q1']:.4f} q3={ma['q3']:.4f} n={ma['n']};"
                f" B q1={mb['q1']:.4f} q3={mb['q3']:.4f} n={mb['n']}]"
            )
    return 1 if worse else 0
