"""Serving-gateway benchmark: multi-tenant load vs latency, cache on/off.

Stands up a seeded deployment (:class:`repro.core.ODAFramework`), runs a
few ingest windows, then replays a zipf-skewed multi-tenant request
stream (:mod:`repro.serve.loadgen`) against two gateways over the same
store — one with the result cache, one without — across a sweep of
offered-QPS levels.  Each gateway persists across levels, so the cached
configuration warms the way a long-lived service does.

Latency is an open-loop single-server queue model over *measured*
service times: request ``i`` arrives at ``i/qps`` seconds,
``finish_i = max(arrival_i, finish_{i-1}) + service_i``, latency is
``finish - arrival``.  Cache hits are served at the arrival loop and pay
only the measured per-request gateway overhead.  Admission policies are
fixed while the offered load varies; the *knee* is the highest level
whose shed rate is still zero.

Levels are sized relative to the host's measured uncached capacity
(mean service time), so the sweep brackets saturation on any machine.
Acceptance: every answer byte-identical across configurations (by
payload digest), shed decisions identical and deterministic (seeded
virtual-time admission), and p99 at the highest sustained (zero-shed)
level improving > 2x with the cache on.  Writes ``BENCH_serving.json``::

    PYTHONPATH=src python benchmarks/bench_serving.py          # full shape
    PYTHONPATH=src python benchmarks/bench_serving.py --quick  # CI-sized
"""

from __future__ import annotations

import argparse
import json
import math
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import DataPlaneOptions, ODAFramework
from repro.obs import reset_all
from repro.serve import (
    AdmissionController,
    EndpointMix,
    LoadProfile,
    Request,
    TenantPolicy,
    generate_load,
    replay_digest,
)
from repro.telemetry import MINI, synthetic_job_mix
from repro.util.rng import derive_seed

REPO_ROOT = Path(__file__).resolve().parent.parent

SEED = 1234

#: Offered load as fractions of measured uncached capacity.  The middle
#: level sits past saturation on purpose: with ~35% of traffic on the
#: top zipf tenant and per-tenant quota at 0.8x capacity, quota
#: shedding starts around 2.3x capacity, so 1.5x is the expected knee —
#: saturated without the cache, comfortable with it.
LEVEL_FRACTIONS = [0.3, 0.6, 1.5, 3.5, 7.0]
QUICK_LEVEL_FRACTIONS = [0.6, 1.5, 3.5]


def build_framework(n_windows: int, window_s: float) -> ODAFramework:
    reset_all()
    allocation = synthetic_job_mix(
        MINI, 0.0, 600.0, np.random.default_rng(11)
    )
    fw = ODAFramework(
        MINI, allocation, seed=5, options=DataPlaneOptions()
    )
    fw.run(0.0, n_windows * window_s, window_s)
    return fw


def build_profile(fw: ODAFramework, horizon_s: float, quick: bool) -> LoadProfile:
    job_ids = tuple(j.job_id for j in fw.allocation.jobs[:4])
    starts = tuple(
        float(t) for t in np.arange(0.0, horizon_s / 2.0, 30.0)
    ) or (0.0,)
    ends = (float(horizon_s * 0.75), float(horizon_s))
    mix = (
        EndpointMix(
            "system_power_view", 3.0, (("t0", starts), ("t1", ends))
        ),
        EndpointMix("job_overview", 3.0, (("job_id", job_ids),)),
        EndpointMix("job_power_profile", 2.0, (("job_id", job_ids),)),
        EndpointMix("top_jobs_by_energy", 1.0, (("n", (3, 5, 10)),)),
        EndpointMix(
            "cooling_plant_view", 1.0, (("t0", starts), ("t1", ends))
        ),
    )
    return LoadProfile(
        mix=mix,
        n_tenants=20 if quick else 40,
        zipf_a=1.2,
        repeat_p=0.6,
    )


def estimate_capacity_qps(fw: ODAFramework, profile: LoadProfile) -> float:
    """Mean uncached service rate, from a permissive calibration gateway."""
    requests = generate_load(profile, 40, seed=derive_seed(SEED, "calib"))
    gateway = fw.serving_gateway(
        cache_enabled=False,
        admission=AdmissionController(
            TenantPolicy(rate_qps=1e6, burst=1e6, queue_limit=10**6)
        ),
    )
    with gateway:
        envelopes = gateway.submit_many(requests, now=0.0)
        services = [
            s
            for e, s in zip(envelopes, gateway.last_service_times)
            if e.status == "ok" and s > 0.0
        ]
    mean_s = sum(services) / len(services)
    return 1.0 / mean_s


def run_level(gateway, requests, offered_qps, t_base, n_ticks=20):
    """Replay one level through a gateway; return per-request outcomes.

    The level is sliced into ``n_ticks`` equal virtual-time batches (so
    cache hits from earlier ticks are visible within the level, matching
    a real service's request cadence) and the queue recursion runs over
    measured service times.
    """
    n = len(requests)
    arrivals = [t_base + i / offered_qps for i in range(n)]
    tick_s = (n / offered_qps) / n_ticks
    by_tick: dict[int, list[int]] = defaultdict(list)
    for i, a in enumerate(arrivals):
        by_tick[min(math.floor((a - t_base) / tick_s), n_ticks - 1)].append(i)

    envelopes = [None] * n
    services = [0.0] * n
    for tick in sorted(by_tick):
        idxs = by_tick[tick]
        wall0 = perf_counter()
        batch = gateway.submit_many(
            [requests[i] for i in idxs], now=t_base + tick * tick_s
        )
        wall = perf_counter() - wall0
        batch_services = gateway.last_service_times
        # Gateway overhead (admission, cache probes, envelope assembly)
        # amortized per request; hits pay only this.
        overhead = max(wall - sum(batch_services), 0.0) / len(idxs)
        for j, i in enumerate(idxs):
            envelopes[i] = batch[j]
            services[i] = (
                batch_services[j]
                if batch[j].status in ("ok", "error")
                else overhead
            )

    latencies = []
    finish = t_base
    for i in range(n):
        if envelopes[i].status == "rejected":
            continue
        if envelopes[i].status == "cached":
            # Served at the arrival loop, never queued behind the server.
            latencies.append(services[i])
            continue
        start = max(arrivals[i], finish)
        finish = start + services[i]
        latencies.append(finish - arrivals[i])
    return envelopes, latencies


def percentile_ms(latencies, q):
    return float(np.percentile(np.array(latencies), q) * 1e3)


def summarize(envelopes, latencies):
    statuses = [e.status for e in envelopes]
    n = len(statuses)
    admitted = sum(1 for s in statuses if s != "rejected")
    cached = statuses.count("cached")
    return {
        "requests": n,
        "admitted": admitted,
        "rejected": n - admitted,
        "shed_rate": (n - admitted) / n,
        "hit_rate": cached / admitted if admitted else 0.0,
        "p50_ms": percentile_ms(latencies, 50),
        "p99_ms": percentile_ms(latencies, 99),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_serving.json"
    )
    args = parser.parse_args()

    n_windows = 2 if args.quick else 4
    window_s = 30.0
    # Enough arrivals per level that the realized top-tenant share
    # concentrates near its zipf expectation (~0.35): the shed knee is
    # then a property of the policy, not of sampling noise.
    per_level = 300 if args.quick else 600
    fractions = QUICK_LEVEL_FRACTIONS if args.quick else LEVEL_FRACTIONS

    print(f"building deployment ({n_windows} windows)...")
    fw = build_framework(n_windows, window_s)
    profile = build_profile(fw, n_windows * window_s, args.quick)
    capacity = estimate_capacity_qps(fw, profile)
    print(f"uncached capacity ~{capacity:.0f} qps")

    # Per-tenant quota at 0.8x capacity: with ~35% of traffic on the
    # top zipf tenant, quota shedding begins around 2.3x capacity —
    # zero at and below the 1.5x knee, deterministic above it.  The
    # burst must cover the top tenant's arrivals within one virtual
    # tick (a tick's arrivals share one `now`, so the bucket cannot
    # refill mid-tick) without covering a whole over-quota level.
    # queue_limit is effectively unbounded so quota is the only shed
    # path in this sweep.
    policy = TenantPolicy(
        rate_qps=max(1.0, 0.8 * capacity),
        burst=max(8.0, 0.08 * per_level),
        queue_limit=10**6,
    )
    gateways = {
        label: fw.serving_gateway(
            cache_enabled=(label == "cache_on"),
            admission=AdmissionController(policy),
        )
        for label in ("cache_on", "cache_off")
    }

    levels = []
    outputs_identical = True
    shed_identical = True
    t_base = 0.0
    for idx, fraction in enumerate(fractions):
        offered = max(2.0, round(fraction * capacity))
        requests = generate_load(
            profile, per_level, seed=derive_seed(SEED, f"serve.level{idx}")
        )
        row = {
            "offered_qps": offered,
            "capacity_fraction": fraction,
            "replay_digest": replay_digest(requests),
        }
        per_config = {}
        for label, gateway in gateways.items():
            envelopes, latencies = run_level(
                gateway, requests, offered, t_base
            )
            row[label] = summarize(envelopes, latencies)
            per_config[label] = envelopes
            print(
                f"level {offered:6.0f} qps  {label:9s} "
                f"p50 {row[label]['p50_ms']:8.3f}ms  "
                f"p99 {row[label]['p99_ms']:8.3f}ms  "
                f"hit {row[label]['hit_rate']:.2f}  "
                f"shed {row[label]['shed_rate']:.2f}"
            )
        for on, off in zip(per_config["cache_on"], per_config["cache_off"]):
            if (on.status == "rejected") != (off.status == "rejected"):
                shed_identical = False
            elif on.ok and off.ok and on.digest != off.digest:
                outputs_identical = False
        levels.append(row)
        # Big virtual gap between levels: token buckets start each
        # level from a full burst, like a fresh traffic epoch.
        t_base += per_level / offered + 1000.0

    zero_shed = [
        row for row in levels if row["cache_on"]["shed_rate"] == 0.0
    ]
    knee = zero_shed[-1] if zero_shed else levels[0]
    p99_speedup = knee["cache_off"]["p99_ms"] / max(
        knee["cache_on"]["p99_ms"], 1e-6
    )
    p50_speedup = knee["cache_off"]["p50_ms"] / max(
        knee["cache_on"]["p50_ms"], 1e-6
    )

    report = {
        "bench": "serving_gateway",
        "shape": {
            "machine": "MINI",
            "windows": n_windows,
            "window_s": window_s,
            "requests_per_level": per_level,
            "n_tenants": profile.n_tenants,
            "zipf_a": profile.zipf_a,
            "repeat_p": profile.repeat_p,
            "seed": SEED,
            "quick": args.quick,
        },
        "capacity_qps_estimate": capacity,
        "admission_policy": {
            "rate_qps": policy.rate_qps,
            "burst": policy.burst,
            "queue_limit": policy.queue_limit,
        },
        "levels": levels,
        "knee_offered_qps": knee["offered_qps"],
        "p50_speedup_at_highest_sustained": p50_speedup,
        "p99_speedup_at_highest_sustained": p99_speedup,
        "outputs_identical": outputs_identical,
        "shed_identical_across_configs": shed_identical,
        "cache_stats": gateways["cache_on"].cache.stats(),
    }
    for gateway in gateways.values():
        gateway.close()
    fw.close()

    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(
        f"\nknee {knee['offered_qps']:.0f} qps: p50 {p50_speedup:.2f}x, "
        f"p99 {p99_speedup:.2f}x with cache on  -> {args.out}"
    )
    if not outputs_identical:
        print("FAIL: cached and uncached payload digests diverged")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
