#!/usr/bin/env python3
"""What each fast path of one ``benchmarks/full`` workload does and saves.

    python3 tools/fork_ledger.py --workload query_panel [--seed 7]
        [--seconds 0] [--smoke] [--json]

Runs the workload once, in process, through
``benchmarks.full.measure.run_once`` (untraced), with every
``repro.perf.baseline.active()`` fork wrapped.  Each call the program
makes through a fork runs its fast side as the program would, then its
reference side on the same inputs, and both are timed:

========================  =======================  ==========================
fork                      fast side                reference side
========================  =======================  ==========================
``factorize``             counting pass / sort     ``factorize_reference``
``choose_encoding``       the cheap estimator      ``choose_encoding_reference``
``utilization``           the memo                 the grid, under baseline
``emit``                  batched ``emit``         ``emit_reference``
``plan_parts``            the zone map             part by part, under baseline
``execute_plan``          the fast executor        ``execute_plan_reference``
========================  =======================  ==========================

The path column says which way the fast side went: the dtype kind for
``factorize``, the encoding chosen for ``choose_encoding``, memo hit or
miss for ``utilization``, the source for ``emit``, zone map or list for
``plan_parts`` and the plan's source for ``execute_plan``.  ``differ``
counts calls whose two sides answered differently (codes and uniques,
the encoding, row counts); it must read 0.  Seconds are each fork's
own: on both sides, the time spent in forks it calls (``emit`` calls
``utilization``), and the ledger's own bookkeeping, are taken out.  A
fork called inside another's reference side runs its fast side and is
not counted.

The row-group cache line sums every ``load_column`` call: hits, misses,
evictions, rejections and the peak of resident bytes against the
budget.  Set-up, timed repetitions and the run's own reference check
(which runs under ``baseline_mode()``, so no fork is counted there) are
all included.  The run's result must read ``correct: true``; ``--json``
prints the ledger as one JSON object instead of the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import numpy as np

from repro.columnar import encodings, file_format
from repro.obs import METRICS
from repro.perf import baseline, baseline_mode
from repro.pipeline import factorize as fz
from repro.pipeline import ops
from repro.query import ZoneMap, cache, executor, scan
from repro.storage import lake, tiers
from repro.telemetry.jobs import AllocationTable
from repro.telemetry.sources import NodeGridSource


class Ledger:
    """Per-(fork, path) calls and seconds, and the cache's traffic."""

    def __init__(self) -> None:
        self.rows: dict[tuple[str, str], dict] = defaultdict(
            lambda: {"calls": 0, "fast_s": 0.0, "reference_s": 0.0, "differ": 0}
        )
        self.cache = {
            "hits": 0, "misses": 0, "evictions": 0, "rejections": 0,
            "peak_bytes": 0, "max_bytes": 0,
        }  # fmt: skip
        #: Seconds spent inside forks (both sides) and in the ledger's
        #: bookkeeping — taken out of an enclosing fork's seconds.
        self._inner = 0.0
        self._in_reference = False

    def pair(self, fork, fast, reference, path, same):
        """Run ``fast()``, then ``reference()``; record both times under
        ``(fork, path(answer))``; hand back the fast answer."""
        if baseline.active():
            return fast()
        inner0 = self._inner
        t0 = perf_counter()
        if self._in_reference:
            out = fast()
            self._inner = inner0 + perf_counter() - t0
            return out
        out = fast()
        t1 = perf_counter()
        inner1 = self._inner
        self._in_reference = True
        try:
            ref = reference()
        finally:
            self._in_reference = False
        t2 = perf_counter()
        row = self.rows[fork, path(out)]
        row["calls"] += 1
        row["fast_s"] += t1 - t0 - (inner1 - inner0)
        row["reference_s"] += t2 - t1 - (self._inner - inner1)
        row["differ"] += not same(out, ref)
        self._inner = inner0 + perf_counter() - t0
        return out

    def load_column(self, inner):
        """``inner`` (the cache's ``load_column``), counting its traffic."""

        def counted(*args, **kwargs):
            t0 = perf_counter()
            evicted0 = METRICS.counter("query.cache_evictions")
            rejected0 = METRICS.counter("query.cache_rejected")
            t1 = perf_counter()
            arr, hit = inner(*args, **kwargs)
            t2 = perf_counter()
            c = self.cache
            c["hits" if hit else "misses"] += 1
            c["evictions"] += METRICS.counter("query.cache_evictions") - evicted0
            c["rejections"] += METRICS.counter("query.cache_rejected") - rejected0
            stats = cache.row_group_cache_stats()
            c["peak_bytes"] = max(c["peak_bytes"], stats["bytes"])
            c["max_bytes"] = stats["max_bytes"]
            self._inner += t1 - t0 + perf_counter() - t2
            return arr, hit

        return counted

    def report(self) -> dict:
        forks = [
            {"fork": fork, "path": path, **row}
            for (fork, path), row in sorted(self.rows.items())
        ]
        return {"forks": forks, "cache": dict(self.cache)}


def _same_codes(a, b) -> bool:
    (codes, uniq), (ref_codes, ref_uniq) = a, b
    if not np.array_equal(codes, ref_codes):
        return False
    if uniq.dtype == object:
        return uniq.tolist() == ref_uniq.tolist()
    return np.array_equal(uniq, ref_uniq, equal_nan=uniq.dtype.kind == "f")


def _wrappers(led: Ledger) -> dict:
    """``(target, attribute) -> replacement`` for every fork and the
    cache's two call sites."""
    factorize = ops.factorize
    choose = file_format.choose_encoding
    utilization = AllocationTable.utilization
    emit = NodeGridSource.emit
    plan_parts = tiers.plan_parts
    execute_plan = tiers.execute_plan

    def w_factorize(col):
        return led.pair(
            "factorize",
            lambda: factorize(col),
            lambda: fz.factorize_reference(col),
            lambda _: col.dtype.kind,
            _same_codes,
        )

    def w_choose(arr):
        return led.pair(
            "choose_encoding",
            lambda: choose(arr),
            lambda: encodings.choose_encoding_reference(arr),
            lambda enc: encodings._ENCODING_NAMES[enc],
            lambda a, b: a == b,
        )

    def w_utilization(self, node_ids, times):
        held = {id(v[0]) for v in self._util_memo.values()}

        def reference():
            with baseline_mode():
                return utilization(self, node_ids, times)

        return led.pair(
            "utilization",
            lambda: utilization(self, node_ids, times),
            reference,
            lambda out: "hit" if id(out[0]) in held else "miss",
            lambda a, b: all(np.array_equal(x, y) for x, y in zip(a, b)),
        )

    def w_emit(self, t0, t1):
        return led.pair(
            "emit",
            lambda: emit(self, t0, t1),
            lambda: self.emit_reference(t0, t1),
            lambda _: self.name,
            lambda a, b: len(a) == len(b),
        )

    def w_plan_parts(name, parts, *args, **kwargs):
        def reference():
            with baseline_mode():
                return plan_parts(name, parts, *args, **kwargs)

        return led.pair(
            "plan_parts",
            lambda: plan_parts(name, parts, *args, **kwargs),
            reference,
            lambda _: "zone map" if isinstance(parts, ZoneMap) else "list",
            lambda a, b: True,  # the plans differ by design; the scans agree
        )

    def w_execute_plan(plan, options=None):
        return led.pair(
            "execute_plan",
            lambda: execute_plan(plan, options),
            lambda: executor.execute_plan_reference(plan),
            lambda _: plan.source,
            lambda a, b: a.num_rows == b.num_rows,
        )

    return {
        (ops, "factorize"): w_factorize,
        (file_format, "choose_encoding"): w_choose,
        (AllocationTable, "utilization"): w_utilization,
        (NodeGridSource, "emit"): w_emit,
        (tiers, "plan_parts"): w_plan_parts,
        (tiers, "execute_plan"): w_execute_plan,
        (lake, "execute_plan"): w_execute_plan,
        (scan, "load_column"): led.load_column(scan.load_column),
        (executor, "load_column"): led.load_column(executor.load_column),
    }


def ledger(workload: str, seed: int = 7, seconds: float = 0.0, smoke: bool = False):
    """``(ledger report, run_once's result)`` for one run of ``workload``."""
    from benchmarks.full.measure import run_once

    led = Ledger()
    with ExitStack() as stack:
        for (target, attribute), replacement in _wrappers(led).items():
            stack.enter_context(mock.patch.object(target, attribute, replacement))
        result = run_once(workload, seed, seconds, trace=False, smoke=smoke)
    return led.report(), result


def render(workload: str, report: dict) -> str:
    lines = [
        f"{'fork':<16} {'path':<10} {'calls':>8} {'fast_s':>9} "
        f"{'reference_s':>12} {'differ':>6}"
    ]
    for r in report["forks"]:
        lines.append(
            f"{r['fork']:<16} {r['path']:<10} {r['calls']:>8,} {r['fast_s']:>9.3f} "
            f"{r['reference_s']:>12.3f} {r['differ']:>6}"
        )
    c = report["cache"]
    lines.append(
        f"row-group cache ({workload}): {c['hits']:,} hits, {c['misses']:,} misses, "
        f"{c['evictions']:,} evictions, {c['rejections']:,} rejections, "
        f"peak {c['peak_bytes'] / 1e6:.1f} MB of {c['max_bytes'] / 1e6:.1f} MB"
    )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    report, result = ledger(args.workload, args.seed, args.seconds, args.smoke)
    report["correct"] = result["correct"]
    report["reps"] = result["reps"]
    if args.json:
        print(json.dumps(report))
    else:
        print(render(args.workload, report))
        print(f"correct: {str(result['correct']).lower()}, reps: {result['reps']}")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
