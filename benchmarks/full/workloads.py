"""The four workloads: seeded inputs, set-up, one timed repetition, checks.

Every repetition builds its own deployment (so set-up is timed once per
repetition and the run reports its median), then runs a fixed amount of
work in the timed region.  ``mode`` picks the execution options:

``"default"``
    The program's defaults — ``DataPlaneOptions()``, default
    ``ScanOptions``, the gateway's ``"auto"`` — whatever they resolve
    to on this host.  End-to-end numbers come from here.
``"serial"``
    ``executor="serial", pipeline="off"`` and serial scan and gateway
    executors: the single-thread control, and the only mode that is
    traced.

Inputs (job mix, query parameters, request stream) are generated from
the seed before any timing; the program sees only the generated inputs.
Output digests cover logical outputs only — window summaries, query
tables, envelope payload digests — never byte sizes or part counts.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

import numpy as np

import repro.obs
import repro.perf
from repro.columnar.file_format import chunk_memo_stats
from repro.columnar.predicate import Col
from repro.core import DataPlaneOptions, ODAFramework
from repro.obs import TRACER
from repro.perf import PERF
from repro.query import ScanOptions
from repro.serve import (
    AdmissionController,
    EndpointMix,
    LoadProfile,
    ServingGateway,
    TenantPolicy,
    generate_load,
    payload_digest,
)
from repro.storage.tiers import TieredStore
from repro.telemetry import COMPASS, synthetic_job_mix

from benchmarks.full.spec import (
    ENDPOINT_WEIGHTS,
    MANAGED,
    PANEL_CLASSES,
    TOGGLES,
    WINDOW_S,
)

__all__ = ["Rep", "workloads", "resolved_modes", "toggle_table"]

SERIAL_SCAN = ScanOptions(executor="serial")

#: STREAM retention: a few windows, so broker trimming runs in every rep.
STREAM_RETENTION_S = 300.0

#: Virtual arrival rate fed to admission.  The default ``TenantPolicy``
#: (100 qps per tenant) sits above what the heaviest zipf tenant (about
#: a third of the stream) offers at this rate, so a shed request is a
#: failure, not a policy decision.
VIRTUAL_QPS = 100.0

#: Work counters read from the program's own registry (``source:
#: program`` in the docs): a later registry merge shows as a rename.
PERF_COUNTERS = (
    "query.parts_scanned",
    "ocean.parts_pruned",
    "query.groups_decoded",
    "query.groups_pruned",
    "query.cache_hits",
    "query.cache_misses",
    "query.cache_evictions",
)


@dataclass
class Deployment:
    """One stood-up system: the framework, and the gateway if served."""

    fw: ODAFramework
    gateway: object = None
    #: OCEAN bytes written by compaction rewrites (see ``_count_rewrites``).
    rewrite_bytes: int = 0

    def close(self) -> None:
        if self.gateway is not None:
            self.gateway.close()
        self.fw.close()


@dataclass
class Rep:
    """What one repetition measured."""

    setup_s: float
    wall_s: float
    #: One sample per user-visible operation, with its class label.
    latencies_ms: list[float]
    labels: list[str]
    #: Units of work the throughput counts, and the wall they took.
    work: int
    work_wall_s: float
    #: Window close -> data queryable (single-window ``fw.run`` wall).
    window_ms: list[float]
    attempted: int
    failed: int
    digest: str
    #: End-of-repetition sizes (bytes, parts, catalog nodes).
    state: dict
    #: Program-side counters over the timed region only.
    counters: dict
    deployment: Deployment | None
    #: What ``reference_mismatches`` re-answers (digests, envelopes).
    answers: list = field(default_factory=list)


def resolved_modes() -> dict:
    """What the program's ``auto`` options resolve to on this host."""
    options = DataPlaneOptions()
    return {
        "executor": options.resolve_executor(),
        "pipeline": options.resolve_pipeline(),
        "scan": ScanOptions().resolve_executor(),
        "gateway": ServingGateway(None, {}).resolve_executor(),
    }


def _isolate() -> None:
    repro.perf.reset_all()
    repro.obs.reset_all()
    gc.collect()


def _count_rewrites(dep: Deployment) -> None:
    """Sum the bytes compaction writes, for ``ocean_write_amp``.

    The object store counts every put alike; what a compaction wrote is
    only in ``compact``'s return value.  A counter on this store's
    ``compact`` (no span, no clock) is how the untraced repetitions get
    the first-write/rewrite split.
    """
    compact = dep.fw.tiers.compact

    def counted(name, min_objects=4):
        result = compact(name, min_objects=min_objects)
        if result["merged"]:
            dep.rewrite_bytes += result["bytes_after"]
        return result

    dep.fw.tiers.compact = counted


def _pin_serial_scans(tiers: TieredStore) -> None:
    """Serial scans for every caller, apps included (they pass no options)."""
    tiers.lake.scan_options = SERIAL_SCAN
    query_archive = tiers.query_archive

    def serial_query_archive(
        name, t0=None, t1=None, predicate=None, columns=None, options=None
    ):
        return query_archive(name, t0, t1, predicate, columns, options or SERIAL_SCAN)

    tiers.query_archive = serial_query_archive


def _options(mode: str, features: dict) -> DataPlaneOptions:
    if mode == "default":
        return DataPlaneOptions(**features)
    return DataPlaneOptions(executor="serial", pipeline="off", **features)


def _deploy(inputs: dict, mode: str, features: dict) -> Deployment:
    fw = ODAFramework(
        inputs["machine"],
        inputs["allocation"],
        seed=inputs["seed"],
        options=_options(mode, features),
        stream_retention_s=STREAM_RETENTION_S,
    )
    dep = Deployment(fw)
    _count_rewrites(dep)
    if mode != "default":
        _pin_serial_scans(fw.tiers)
    return dep


def _fleet_inputs(seed: int, nodes: int, n_windows: int) -> dict:
    machine = COMPASS.scaled(nodes)
    # Jobs of at most an eighth of the fleet: about ten jobs whatever
    # the seed.  At the generator's default (half the fleet) one seed
    # draws two jobs and the next nine, and what a job endpoint costs
    # follows the job's size, so seeds stopped being comparable.
    allocation = synthetic_job_mix(
        machine,
        0.0,
        n_windows * WINDOW_S,
        np.random.default_rng(seed),
        max_job_fraction=0.125,
    )
    return {"seed": seed, "machine": machine, "allocation": allocation}


def _program_counters(dep: Deployment) -> dict:
    memo = chunk_memo_stats()
    out = {name: PERF.counter(name) for name in PERF_COUNTERS}
    out["chunk_memo.hits"] = memo["hits"]
    out["chunk_memo.misses"] = memo["misses"]
    out["obs.spans_finished"] = len(TRACER.finished())
    out["obs.spans_dropped"] = TRACER.dropped
    if dep.gateway is not None:
        for key, value in dep.gateway.cache.stats().items():
            out[f"serve.cache.{key}"] = value
    return out


def _state(dep: Deployment) -> dict:
    fw = dep.fw
    tiers = fw.tiers
    return {
        "raw_bytes": sum(w.raw_bytes for w in fw.windows),
        "stored_bytes": sum(tiers.footprint().values()),
        "ocean_put_bytes": tiers.ocean.bytes_written,
        "rewrite_bytes": dep.rewrite_bytes,
        "ocean_parts": tiers.ocean.total_objects(),
        "ocean_bytes": tiers.ocean.total_bytes(),
        "lake_bytes": tiers.lake.nbytes(),
        "stream_retained_bytes": sum(
            fw.broker.topic_bytes(t) for t in fw.broker.topics()
        ),
        "lineage_nodes": len(fw.lineage) if fw.lineage is not None else 0,
        "lineage_edges": len(fw.lineage.edges()) if fw.lineage is not None else 0,
    }



def _table_digests(tiers: TieredStore, t1: float | None) -> list[str]:
    """Canonical query tables of a deployment up to simulated time ``t1``."""
    return [
        payload_digest(tiers.query_archive(name, None, t1, options=SERIAL_SCAN))
        for name in ("power.silver", "power.gold_profiles", "storage_io.silver")
    ]


def _root(tracer):
    """The traced run's root span around a timed region, if traced."""
    return tracer.root() if tracer is not None else nullcontext()


def _finish(dep: Deployment, before: dict, answers, **measured) -> Rep:
    """Close a repetition: counters, end state, then the output digest
    over the window summaries and the workload's ``answers()`` (digest
    strings; called last, because its queries grow the lineage catalog)."""
    after = _program_counters(dep)
    state = _state(dep)
    h = hashlib.blake2b(digest_size=16)
    for w in dep.fw.windows:
        h.update(repr(dataclasses.astuple(w)).encode())
    for answer in answers():
        h.update(answer.encode())
    return Rep(
        digest=h.hexdigest(),
        state=state,
        counters={k: after[k] - before.get(k, 0) for k in after},
        deployment=dep,
        **measured,
    )


class Ingest:
    """``ingest_bare`` and ``ingest_managed``: windows in, nothing read.

    The timed region is one ``fw.run`` over ``windows`` windows (rows per
    second of its wall is the throughput; under the default options it
    is the pipelined schedule) followed by ``single`` windows driven one
    ``fw.run`` each, whose walls are the freshness samples: window close
    to data queryable, lifecycle tick included when one is due.
    """

    def __init__(self, name: str, shape: dict, features: dict) -> None:
        self.name = name
        self.shape = shape
        self.features = features

    def inputs(self, seed: int) -> dict:
        s = self.shape
        return _fleet_inputs(seed, s["nodes"], s["warm"] + s["windows"] + s["single"])

    def rep(self, inputs: dict, mode: str, tracer=None) -> Rep:
        s = self.shape
        _isolate()
        t = perf_counter()
        dep = _deploy(inputs, mode, self.features)
        fw = dep.fw
        a = s["warm"] * WINDOW_S
        b = a + s["windows"] * WINDOW_S
        fw.run(0.0, a, WINDOW_S)
        setup_s = perf_counter() - t

        before = _program_counters(dep)
        window_ms = []
        with _root(tracer):
            t0 = perf_counter()
            summaries = fw.run(a, b, WINDOW_S)
            run_wall = perf_counter() - t0
            for k in range(s["single"]):
                t1 = perf_counter()
                fw.run(b + k * WINDOW_S, b + (k + 1) * WINDOW_S, WINDOW_S)
                window_ms.append((perf_counter() - t1) * 1e3)
            wall = perf_counter() - t0
        fw.close()

        windows = s["windows"] + s["single"]
        return _finish(
            dep,
            before,
            lambda: _table_digests(fw.tiers, None),
            setup_s=setup_s,
            wall_s=wall,
            latencies_ms=window_ms,
            labels=["window"] * len(window_ms),
            work=sum(w.bronze_rows for w in summaries),
            work_wall_s=run_wall,
            window_ms=window_ms,
            attempted=windows + fw.lifecycle.ticks,
            failed=0,
        )

    def reference_mismatches(self, inputs: dict, rep: Rep) -> int:
        """Re-ingest the first windows on the pre-optimization data
        plane under ``baseline_mode`` and compare logical outputs."""
        n = self.shape["reference"]
        t1 = n * WINDOW_S
        options = dataclasses.replace(
            DataPlaneOptions.serial_baseline(), **self.features
        )
        with repro.perf.baseline_mode():
            ref = ODAFramework(
                inputs["machine"],
                inputs["allocation"],
                seed=inputs["seed"],
                options=options,
                stream_retention_s=STREAM_RETENTION_S,
            )
            ref.run(0.0, t1, WINDOW_S)
            want = _table_digests(ref.tiers, t1)
        fw = rep.deployment.fw
        got = _table_digests(fw.tiers, t1)
        return sum(a != b for a, b in zip(want, got)) + sum(
            a != b for a, b in zip(ref.windows, fw.windows[:n])
        )


@dataclass(frozen=True)
class PanelQuery:
    cls: str
    kind: str  # "archive" | "online" | "rollup"
    target: str
    t0: float | None = None
    t1: float | None = None
    predicate: object = None
    columns: tuple | None = None

    def run(self, tiers: TieredStore):
        columns = list(self.columns) if self.columns is not None else None
        if self.kind == "archive":
            return tiers.query_archive(
                self.target, self.t0, self.t1, self.predicate, columns
            )
        if self.kind == "online":
            return tiers.query_online(
                self.target, self.t0, self.t1, self.predicate, columns
            )
        return tiers.query_rollup(self.target)


class QueryPanel:
    """``query_panel``: reads only, on a store a managed ingest left.

    Set-up ingests the whole horizon with lifecycle ticks every
    ``lifecycle_every_s`` (one compacted part plus a tail of
    single-window parts per dataset) and answers one untimed panel round
    to fill the caches.  The timed region answers ``rounds`` rounds of
    :data:`PANEL_CLASSES`; throughput is queries per second of its wall,
    latency is per query.
    """

    name = "query_panel"

    def __init__(self, shape: dict) -> None:
        self.shape = shape
        self.features = dict(MANAGED, lifecycle_every_s=shape["lifecycle_every_s"])

    def inputs(self, seed: int) -> dict:
        s = self.shape
        inputs = _fleet_inputs(seed, s["nodes"], s["windows"])
        rng = np.random.default_rng([seed, 1])
        inputs["rounds"] = [
            self._round(rng) for _ in range(s["rounds"] + 1)  # +1: the warm round
        ]
        return inputs

    def _round(self, rng) -> list[PanelQuery]:
        s = self.shape
        n, horizon = s["windows"], s["windows"] * WINDOW_S
        power = ("timestamp", "node", "input_power")
        tail = max(1, min(30, n // 4))

        def make(cls: str) -> PanelQuery:
            if cls == "narrow_window":
                t0 = float(rng.integers(0, n - 1)) * WINDOW_S
                return PanelQuery(cls, "archive", "power.silver", t0, t0 + 2 * WINDOW_S)
            if cls == "node_history":
                node = int(rng.integers(0, s["nodes"]))
                return PanelQuery(
                    cls, "archive", "power.silver",
                    predicate=Col("node").isin([node]), columns=power,
                )
            if cls == "bronze_scan":
                # Between the bulk of the sensor values and the fan
                # speeds: any threshold here selects the same ~8% of rows.
                threshold = float(rng.uniform(2500.0, 4000.0))
                return PanelQuery(
                    cls, "archive", "power.bronze",
                    predicate=Col("value") > threshold,
                )
            if cls == "recent_window":
                t0 = float(n - rng.integers(1, tail + 1)) * WINDOW_S
                return PanelQuery(cls, "archive", "power.silver", t0, t0 + WINDOW_S)
            if cls == "online_window":
                t0 = float(rng.integers(0, max(1, n - 4))) * WINDOW_S
                return PanelQuery(
                    cls, "online", "power.silver", t0, t0 + 4 * WINDOW_S, columns=power
                )
            if cls == "rollup":
                return PanelQuery(cls, "rollup", "power.silver.node_power")
            t0 = float(rng.integers(0, 2)) * horizon / 2
            return PanelQuery(cls, "archive", "storage_io.silver", t0, t0 + horizon / 2)

        queries = [make(cls) for cls, k in PANEL_CLASSES.items() for _ in range(k)]
        order = rng.permutation(len(queries))
        return [queries[i] for i in order]

    def rep(self, inputs: dict, mode: str, tracer=None) -> Rep:
        s = self.shape
        _isolate()
        t = perf_counter()
        dep = _deploy(inputs, mode, self.features)
        fw, tiers = dep.fw, dep.fw.tiers
        fw.run(0.0, s["windows"] * WINDOW_S, WINDOW_S)
        fw.close()
        for query in inputs["rounds"][0]:
            query.run(tiers)
        setup_s = perf_counter() - t

        before = _program_counters(dep)
        timed = [q for round_ in inputs["rounds"][1:] for q in round_]
        latencies, results = [], []
        with _root(tracer):
            t0 = perf_counter()
            for query in timed:
                t1 = perf_counter()
                results.append(query.run(tiers))
                latencies.append((perf_counter() - t1) * 1e3)
            wall = perf_counter() - t0

        digests = [payload_digest(table) for table in results]
        rep = _finish(
            dep,
            before,
            lambda: digests,
            setup_s=setup_s,
            wall_s=wall,
            latencies_ms=latencies,
            labels=[q.cls for q in timed],
            work=len(timed),
            work_wall_s=wall,
            window_ms=[],
            attempted=len(timed) + len(fw.windows) + fw.lifecycle.ticks,
            failed=0,
        )
        rep.answers = digests
        return rep

    def reference_mismatches(self, inputs: dict, rep: Rep) -> int:
        """Re-answer the first query of each class under ``baseline_mode``
        (every part fetched, everything decoded, no caches)."""
        timed = [q for round_ in inputs["rounds"][1:] for q in round_]
        sample = {}
        for i, query in enumerate(timed):
            sample.setdefault(query.cls, i)
        tiers = rep.deployment.fw.tiers
        with repro.perf.baseline_mode():
            return sum(
                payload_digest(timed[i].run(tiers)) != rep.answers[i]
                for i in sample.values()
            )


class ServeMixed:
    """``serve_mixed``: reads beside writes on one store.

    Closed loop, one client, zero think time: the gateway is a blocking
    in-process call, so a caller waits for each reply.  Each round
    ingests one window (``fw.run`` over it: ``run_window`` plus the
    lifecycle tick) and then submits ``requests_per_round`` requests.  A
    request's latency is completion(i) - completion(i-1), so a write
    that blocks the client is charged to the next read.
    """

    name = "serve_mixed"

    def __init__(self, shape: dict) -> None:
        self.shape = shape
        self.features = MANAGED

    def inputs(self, seed: int) -> dict:
        s = self.shape
        n_windows = s["warm"] + s["rounds"]
        inputs = _fleet_inputs(seed, s["nodes"], n_windows)
        horizon = n_windows * WINDOW_S
        starts = tuple(float(t) for t in np.arange(0.0, horizon / 2, WINDOW_S))
        ends = tuple(horizon * f for f in (0.55, 0.6, 0.7, 0.8, 0.9, 1.0, 1.05, 1.1))
        window = (("t0", starts), ("t1", ends))
        job_ids = tuple(j.job_id for j in inputs["allocation"].jobs)
        params = {
            "system_power_view": window,
            "job_overview": (("job_id", job_ids),),
            "job_power_profile": (("job_id", job_ids),),
            "top_jobs_by_energy": (("n", (3, 5, 10, 20)),),
            "cooling_plant_view": window,
            "fleet_power": (),
            "archived_power_usage": (("dataset", ("power.silver",)),) + window,
        }
        profile = LoadProfile(
            mix=tuple(
                EndpointMix(name, weight, params[name])
                for name, weight in ENDPOINT_WEIGHTS.items()
            ),
            n_tenants=40,
            zipf_a=1.2,
            repeat_p=0.3,
        )
        inputs["requests"] = generate_load(
            profile, s["rounds"] * s["requests_per_round"], seed=seed
        )
        return inputs

    def rep(self, inputs: dict, mode: str, tracer=None) -> Rep:
        s = self.shape
        per_round = s["requests_per_round"]
        requests = inputs["requests"]
        _isolate()
        t = perf_counter()
        dep = _deploy(inputs, mode, self.features)
        fw = dep.fw
        a = s["warm"] * WINDOW_S
        fw.run(0.0, a, WINDOW_S)
        gateway = dep.gateway = fw.serving_gateway(
            executor="auto" if mode == "default" else "serial",
            admission=AdmissionController(TenantPolicy()),
        )
        if tracer is not None:
            tracer.wrap_endpoints(gateway)
        setup_s = perf_counter() - t

        before = _program_counters(dep)
        latencies, window_ms, envelopes = [], [], []
        with _root(tracer):
            t0 = done = perf_counter()
            for r in range(s["rounds"]):
                t1 = perf_counter()
                fw.run(a + r * WINDOW_S, a + (r + 1) * WINDOW_S, WINDOW_S)
                window_ms.append((perf_counter() - t1) * 1e3)
                for i in range(r * per_round, (r + 1) * per_round):
                    envelopes.append(
                        gateway.submit(requests[i], now=i / VIRTUAL_QPS)
                    )
                    now = perf_counter()
                    latencies.append((now - done) * 1e3)
                    done = now
            wall = perf_counter() - t0
        dep.close()

        # The first request of a round waited for the round's write.
        labels = [
            f"{e.request.endpoint}:{'stalled' if i % per_round == 0 else e.status}"
            for i, e in enumerate(envelopes)
        ]
        rep = _finish(
            dep,
            before,
            lambda: [f"{e.status}:{e.digest}" for e in envelopes],
            setup_s=setup_s,
            wall_s=wall,
            latencies_ms=latencies,
            labels=labels,
            work=len(envelopes),
            work_wall_s=wall,
            window_ms=window_ms,
            attempted=len(envelopes) + s["rounds"] * 2,
            failed=sum(not e.ok for e in envelopes),
        )
        rep.counters["serve.shed"] = sum(e.status == "rejected" for e in envelopes)
        rep.counters["serve.errors"] = sum(e.status == "error" for e in envelopes)
        rep.answers = envelopes[-per_round:]
        return rep

    def reference_mismatches(self, inputs: dict, rep: Rep) -> int:
        """Re-answer the last round's distinct questions by calling the
        endpoints directly under ``baseline_mode``; nothing was written
        since, so the answers must equal what the gateway served."""
        endpoints = rep.deployment.gateway.endpoints
        distinct = {e.request.fingerprint(): e for e in rep.answers}
        with repro.perf.baseline_mode():
            return sum(
                payload_digest(endpoints[e.request.endpoint](**e.request.kwargs()))
                != e.digest
                for e in distinct.values()
            )


def workloads(shapes: dict) -> dict:
    """The workloads of ``BENCHMARK.json`` at the given shapes."""
    return {
        "ingest_bare": Ingest("ingest_bare", shapes["ingest_bare"], {}),
        "ingest_managed": Ingest("ingest_managed", shapes["ingest_managed"], MANAGED),
        "query_panel": QueryPanel(shapes["query_panel"]),
        "serve_mixed": ServeMixed(shapes["serve_mixed"]),
    }


def toggle_table(seed: int, shape: dict) -> dict:
    """Marginal cost of each ``DataPlaneOptions`` feature over bare.

    Serial data plane, interleaved repetitions; each row is the median
    over repetitions of (wall with exactly one feature on) / (bare wall
    of the same repetition), with the OCEAN bytes put beside it.
    """
    inputs = _fleet_inputs(seed, shape["nodes"], shape["windows"])
    configs = {"bare": {}, **TOGGLES}
    walls = {name: [] for name in configs}
    put_bytes = {}
    for _ in range(shape["reps"]):
        for name, features in configs.items():
            _isolate()
            dep = _deploy(inputs, "serial", features)
            t = perf_counter()
            dep.fw.run(0.0, shape["windows"] * WINDOW_S, WINDOW_S)
            walls[name].append(perf_counter() - t)
            put_bytes[name] = dep.fw.tiers.ocean.bytes_written
    return {
        name: {
            "wall_s": median(walls[name]),
            "x_bare": median(w / b for w, b in zip(walls[name], walls["bare"])),
            "ocean_put_bytes": put_bytes[name],
            "ocean_put_bytes_delta": put_bytes[name] - put_bytes["bare"],
        }
        for name in configs
    }
