"""ODAFramework: the hourglass facade.

One object standing up the full ingest path of Fig. 1/Fig. 5 for one
machine: telemetry sources -> STREAM broker -> medallion refinement ->
tiered storage — with volume accounting at every hop.  The examples and
several benches drive the system exclusively through this facade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.obs import METRICS, TRACER
from repro.pipeline.medallion import MedallionPipeline
from repro.storage.tiers import DataClass, TieredStore
from repro.stream.broker import Broker, TopicConfig
from repro.stream.consumer import Consumer
from repro.stream.producer import Producer
from repro.stream.retention import RetentionPolicy
from repro.stream.sharding import ShardedBroker
from repro.telemetry.fleet import FleetTelemetry
from repro.telemetry.jobs import AllocationTable
from repro.telemetry.machine import MachineConfig

__all__ = [
    "ODAFramework",
    "WindowSummary",
    "DataPlaneOptions",
    "HEALTH_SENSORS",
    "HEALTH_TOPIC",
    "HEALTH_DATASET",
]

#: Topics created per machine; the broker is the hourglass waist.
STREAM_TOPICS = (
    "power",
    "perf_counters",
    "syslog",
    "storage_io",
    "interconnect",
    "facility",
)

#: The framework's own health signals, re-published as a synthetic
#: telemetry topic when ``DataPlaneOptions.self_telemetry`` is on ("ODA
#: for the ODA").  Deliberately restricted to deterministic quantities —
#: row counts and byte volumes, never wall time — so a self-observed run
#: stays byte-for-byte replayable.
HEALTH_SENSORS = (
    "oda.records_produced",
    "oda.raw_bytes",
    "oda.bronze_rows",
    "oda.silver_rows",
    "oda.gold_rows",
    "oda.stream_retained_bytes",
    "oda.skipped_by_retention",
    "oda.windows_total",
)

#: Topic + dataset names of the self-telemetry loop.
HEALTH_TOPIC = "oda_health"
HEALTH_DATASET = "oda_health.silver"


@dataclass(frozen=True)
class DataPlaneOptions:
    """How the framework moves and refines a window's data.

    No option selects the fast or the reference path: every framework
    runs the fast path (batched telemetry emission, the fast encoding
    estimator, planned scans) and takes the pre-optimization one while
    ``repro.perf.baseline_mode()`` is entered, with byte-identical
    outputs (``tests/core/test_parallel_equivalence``).  Windows,
    refineries and tier writes run on the calling thread, one after
    another (DESIGN.md §8, "Concurrency model"); broker shards are the
    scale-out unit.

    Parameters
    ----------
    executor, pipeline:
        Retired selectors, kept only because the frozen
        ``benchmarks/full`` harness still passes them: ``"serial"`` /
        ``"off"`` (the defaults) and ``"auto"`` all mean the one serial
        schedule; ``"threads"`` / ``"on"`` raise ``ValueError``.
    self_telemetry:
        Re-publish the framework's own health gauges (row counts, byte
        volumes — see :data:`HEALTH_SENSORS`) as a synthetic telemetry
        topic after every window, refined through the normal medallion
        chain into the ``oda_health.silver`` dataset.  Off by default:
        the loop adds a dataset to the tier footprint, which strict
        footprint comparisons against non-observed runs would notice.
    lifecycle:
        Run the tier lifecycle manager (sweep + retention + compaction,
        see :class:`repro.storage.lifecycle.LifecycleManager`) between
        windows of :meth:`ODAFramework.run`, driven by window-boundary
        simulated time — never the wall clock — so managed runs stay
        replayable.  Also registers the default ``power.silver``
        per-node power rollup the UA dashboard and RATS serve from.
        Off by default: ticks rewrite OCEAN parts, which strict
        footprint/part-count comparisons against unmanaged runs would
        notice.
    lifecycle_every_s:
        Minimum simulated seconds between lifecycle ticks.  ``None``
        (default) ticks after every window.
    lineage:
        Record a :class:`repro.lineage.LineageCatalog` over the run:
        every topic window, refined batch, OCEAN part, rollup partial,
        query answer and serve envelope becomes a provenance node,
        recorded write-through at its producing site.  Node identity is
        deterministic (logical coordinates, never the clock), so
        same-seed runs export byte-identical catalogs across shard
        counts.  Off by default: the catalog grows with the
        artifact count, which long unattended runs may not want.
    shards:
        Number of independent broker shards at the hourglass waist.
        ``1`` (default) is the plain single-node :class:`Broker`;
        larger values stand up a
        :class:`~repro.stream.sharding.ShardedBroker` behind the same
        client API (each topic gets its per-topic partition count *per
        shard*, with per-shard offsets and retention).  Pipeline
        outputs are byte-identical across shard counts for the same
        seeds — each (machine, topic) key lands wholly on one shard,
        so every consumer sees the same value sequence
        (``tests/integration/test_serving_equivalence`` proves Gold
        tables and span structure match).
    """

    executor: str = "serial"
    pipeline: str = "off"
    self_telemetry: bool = False
    lifecycle: bool = False
    lifecycle_every_s: float | None = None
    lineage: bool = False
    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise ValueError("shards must be positive")
        if self.executor not in ("serial", "auto"):
            raise ValueError(
                f"executor must be 'serial' or 'auto', got {self.executor!r}: "
                "execution is single-threaded (DESIGN.md §8, Concurrency model)"
            )
        if self.pipeline not in ("off", "auto"):
            raise ValueError(
                f"pipeline must be 'off' or 'auto', got {self.pipeline!r}: "
                "windows run back to back (DESIGN.md §8, Concurrency model)"
            )
        if self.lifecycle_every_s is not None:
            if not self.lifecycle:
                raise ValueError("lifecycle_every_s requires lifecycle=True")
            # A NaN period would never come due: refuse it with the rest.
            if not self.lifecycle_every_s > 0:
                raise ValueError("lifecycle_every_s must be positive")

    def resolve_executor(self) -> str:
        """Always ``"serial"`` (the name the full-path bench records)."""
        return "serial"

    def resolve_pipeline(self) -> str:
        """Always ``"off"`` (the name the full-path bench records)."""
        return "off"

    @classmethod
    def serial_baseline(cls) -> "DataPlaneOptions":
        """The default options.  Residue: the frozen ``benchmarks/full``
        harness builds its reference run from this; ``baseline_mode()``
        alone selects the pre-optimization plane."""
        return cls()


@dataclass(frozen=True)
class WindowSummary:
    """What one ingest window produced at each hop."""

    t0: float
    t1: float
    records_produced: int
    raw_bytes: int
    bronze_rows: int
    silver_rows: int
    gold_rows: int

    @property
    def reduction(self) -> float:
        """Bronze -> Silver row compaction for this window."""
        return self.bronze_rows / self.silver_rows if self.silver_rows else float("inf")


class ODAFramework:
    """End-to-end ODA deployment for one machine.

    Parameters
    ----------
    machine:
        The instrumented system.
    allocation:
        Job oracle (from :func:`repro.telemetry.jobs.synthetic_job_mix`
        or the scheduler simulator).
    seed:
        Root seed for all telemetry.
    nodes:
        Optional node subset for laptop-scale runs.
    stream_retention_s:
        STREAM tier retention (Fig. 5's short in-flight horizon).
    """

    def __init__(
        self,
        machine: MachineConfig,
        allocation: AllocationTable,
        seed: int = 0,
        nodes: np.ndarray | None = None,
        stream_retention_s: float = 3 * 86_400.0,
        silver_interval_s: float = 15.0,
        refine_streams: tuple[str, ...] | None = None,
        options: DataPlaneOptions | None = None,
    ) -> None:
        self.machine = machine
        self.allocation = allocation
        self.seed = seed
        self.options = options if options is not None else DataPlaneOptions()
        self.fleet = FleetTelemetry(machine, allocation, seed, nodes)

        self.broker = (
            Broker()
            if self.options.shards == 1
            else ShardedBroker(self.options.shards)
        )
        for topic in STREAM_TOPICS:
            self.broker.create_topic(
                TopicConfig(
                    topic,
                    n_partitions=4,
                    retention=RetentionPolicy(max_age_s=stream_retention_s),
                )
            )
        self.producer = Producer(self.broker, client_id="fleet-ingest")

        # One refinery (consumer group + medallion pipeline) per
        # observation stream selected for refinement.  Power always
        # refines (it feeds Gold profiles); other numeric streams refine
        # to Silver for the dashboards.
        if refine_streams is None:
            refine_streams = ("power", "storage_io", "interconnect")
        unknown = set(refine_streams) - set(STREAM_TOPICS)
        if unknown:
            raise ValueError(f"unknown streams {sorted(unknown)}")
        if "power" not in refine_streams:
            raise ValueError("the power stream must be refined (feeds Gold)")
        sources_by_name = {
            s.name: s
            for s in (
                self.fleet.power,
                self.fleet.perf,
                self.fleet.storage_io,
                self.fleet.interconnect,
            )
        }

        self.lineage = None
        if self.options.lineage:
            from repro.lineage import LineageCatalog

            self.lineage = LineageCatalog()
        self.tiers = TieredStore(lineage=self.lineage)
        self.tiers.register("power.bronze", DataClass.BRONZE)
        self.tiers.register("power.gold_profiles", DataClass.GOLD)
        self._refineries: dict[str, tuple[Consumer, MedallionPipeline]] = {}
        for name in refine_streams:
            source = sources_by_name.get(name)
            if source is None:
                raise ValueError(f"stream {name!r} is not refinable")
            self.tiers.register(f"{name}.silver", DataClass.SILVER)
            self._refineries[name] = (
                Consumer(self.broker, name, group=f"medallion-{name}"),
                MedallionPipeline(source.catalog, allocation, silver_interval_s),
            )
        self.medallion = self._refineries["power"][1]

        # Facility telemetry is plant-level (tiny, already per-channel
        # wide after a pivot) — refined straight into the LAKE for the
        # LVA cooling-plant view (Fig. 8 right panel).
        self.tiers.register("facility.silver", DataClass.SILVER)
        self._facility_consumer = Consumer(
            self.broker, "facility", group="facility-refinery"
        )

        # Syslog fans out to two independent consumer groups: the log
        # search index (UA diagnostics) and the Copacetic correlation
        # engine (security) — the multi-consumer pattern the broker
        # exists for.
        from repro.apps.copacetic import CopaceticEngine
        from repro.storage.logstore import LogStore

        self.logs = LogStore(self.fleet.syslog.templates)
        self.copacetic = CopaceticEngine()
        self._log_consumer = Consumer(self.broker, "syslog", group="log-index")
        self._sec_consumer = Consumer(self.broker, "syslog", group="copacetic")

        # Self-telemetry: the framework's own health metrics become one
        # more topic flowing through the same broker, refinement and
        # tiers it observes — so the UA dashboard can diagnose the ODA
        # with the ODA's own machinery.
        self._health_consumer: Consumer | None = None
        self._health_catalog = None
        if self.options.self_telemetry:
            from repro.obs import health_catalog

            self.broker.create_topic(
                TopicConfig(
                    HEALTH_TOPIC,
                    n_partitions=1,
                    retention=RetentionPolicy(max_age_s=stream_retention_s),
                )
            )
            self.tiers.register(HEALTH_DATASET, DataClass.SILVER)
            self._health_consumer = Consumer(
                self.broker, HEALTH_TOPIC, group="obs-health"
            )
            self._health_catalog = health_catalog(
                list(HEALTH_SENSORS), sample_period_s=silver_interval_s
            )

        # Tier lifecycle: always constructed (callers may tick it by
        # hand), scheduled from run() only when options.lifecycle is on.
        from repro.storage.lifecycle import LifecycleManager

        self.lifecycle = LifecycleManager(self.tiers)
        self._next_lifecycle_at: float | None = None
        if self.options.lifecycle:
            from repro.storage.rollup import RollupSpec

            self.tiers.add_rollup(
                RollupSpec(
                    name="power.silver.node_power",
                    source="power.silver",
                    keys=("node",),
                    value="input_power",
                )
            )

        self.windows: list[WindowSummary] = []

    # -- execution ------------------------------------------------------------

    def close(self) -> None:
        """Nothing to release; kept for ``with`` blocks and callers that
        pair it with construction."""

    def __enter__(self) -> "ODAFramework":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_window(self, t0: float, t1: float) -> WindowSummary:
        """Ingest and refine one time window end to end.

        Phase 1: each refinery polls its topic and runs the medallion
        chain; facility pivots; syslog fans out to the log index and
        Copacetic.  Phase 2 (insertion order): offset commits, tier
        writes, retention — the steps whose order the on-disk artifacts
        depend on.
        """
        with TRACER.span_or_trace(
            "window",
            seed=self.seed,
            index=len(self.windows),
            window=len(self.windows),
            machine=self.machine.name,
            t0=t0,
            t1=t1,
        ):
            with METRICS.timer("window.total"):
                return self._run_window_impl(t0, t1)

    def _lineage_batch(
        self, dataset: str, now: float, window_node: str | None
    ) -> None:
        """Record a refined batch and its source topic window.

        The batch node's coordinates are exactly the ``(dataset, now)``
        pair :meth:`TieredStore.ingest` receives, so the store derives
        the same node ID for the part side of the edge with no shared
        hand-off.
        """
        cat = self.lineage
        if cat is None:
            return
        bid = cat.record("batch", (dataset, now), attrs={"dataset": dataset})
        if window_node is not None:
            cat.link(window_node, bid, "derived")

    def _run_window_impl(self, t0: float, t1: float) -> WindowSummary:
        with METRICS.timer("telemetry.emit"):
            batches = self.fleet.emit_window(t0, t1)

        # Hop 1: everything lands on the STREAM tier, keyed for ordering.
        produced = 0
        raw_bytes = 0
        window_nodes: dict[str, str] = {}
        for topic, batch in batches.items():
            if len(batch) == 0:
                continue
            key = f"{self.machine.name}:{topic}"
            self.producer.send(topic, batch, key=key, timestamp=t0)
            if self.lineage is not None:
                window_nodes[topic] = self.lineage.record(
                    "topic_window", (topic, key, t0), attrs={"topic": topic}
                )
            produced += 1
            raw_bytes += batch.nbytes_raw

        # Hop 2+3 phase 1: refine every stream.
        from repro.pipeline.medallion import bronze_standardize, silver_aggregate

        def poll_values(consumer: Consumer) -> list:
            return [
                r.value
                for _, recs in consumer.poll_slices(max_records=1_000)
                for r in recs
            ]

        # Spans embed the topic/role in their *name* ("refine:power",
        # "consume:log-index"), which span IDs derive from.
        refined = {}
        for name, (consumer, pipeline) in self._refineries.items():
            with TRACER.span(f"refine:{name}", topic=name):
                refined[name] = pipeline.process(poll_values(consumer))

        fac_silver = None
        with TRACER.span("refine:facility", topic="facility"):
            fac_batches = poll_values(self._facility_consumer)
            if fac_batches:
                fac_silver = silver_aggregate(
                    bronze_standardize(fac_batches),
                    self.fleet.facility.catalog,
                    self.medallion.interval,
                )

        with TRACER.span("consume:log-index", topic="syslog"):
            for value in poll_values(self._log_consumer):
                self.logs.ingest(value)

        with TRACER.span("consume:copacetic", topic="syslog"):
            for value in poll_values(self._sec_consumer):
                self.copacetic.process(value)

        # Phase 2: commits and tier placement, in insertion order.
        tables = {"bronze": None, "silver": None, "gold": None}
        for name, (consumer, _) in self._refineries.items():
            out = refined[name]
            consumer.commit()
            # Batch nodes are recorded *before* the tier write so the
            # phase-2 span wins the node's span field; the ingest side's
            # recording then merges into it.
            self._lineage_batch(f"{name}.silver", t1, window_nodes.get(name))
            self.tiers.ingest(f"{name}.silver", out["silver"], now=t1)
            if name == "power":
                tables = out
                self._lineage_batch("power.bronze", t1, window_nodes.get(name))
                self._lineage_batch(
                    "power.gold_profiles", t1, window_nodes.get(name)
                )
                self.tiers.ingest("power.bronze", out["bronze"], now=t1)
                self.tiers.ingest("power.gold_profiles", out["gold"], now=t1)

        if fac_silver is not None:
            self._lineage_batch(
                "facility.silver", t1, window_nodes.get("facility")
            )
            self.tiers.ingest("facility.silver", fac_silver, now=t1)
        self._facility_consumer.commit()
        self._log_consumer.commit()
        self._sec_consumer.commit()

        # STREAM retention runs continuously.
        self.broker.enforce_retention(now=t1)

        summary = WindowSummary(
            t0=t0,
            t1=t1,
            records_produced=produced,
            raw_bytes=raw_bytes,
            bronze_rows=tables["bronze"].num_rows,
            silver_rows=tables["silver"].num_rows,
            gold_rows=tables["gold"].num_rows,
        )
        self.windows.append(summary)
        if self._health_consumer is not None:
            self._publish_health(summary)
        return summary

    def _publish_health(self, summary: WindowSummary) -> None:
        """Close the self-telemetry loop for one window.

        The window's health gauges become an :class:`ObservationBatch`
        on the ``oda_health`` topic, which a dedicated consumer group
        polls and refines through the same Bronze -> Silver chain as
        machine telemetry before landing in the ``oda_health.silver``
        dataset — queryable by the UA dashboard like any other stream.
        """
        from repro.obs import health_batch
        from repro.pipeline.medallion import bronze_standardize, silver_aggregate

        with TRACER.span("obs.self_telemetry"):
            skipped = sum(
                c.skipped_by_retention
                for c in (
                    *(c for c, _ in self._refineries.values()),
                    self._facility_consumer,
                    self._log_consumer,
                    self._sec_consumer,
                )
            )
            gauges = {
                "oda.records_produced": summary.records_produced,
                "oda.raw_bytes": summary.raw_bytes,
                "oda.bronze_rows": summary.bronze_rows,
                "oda.silver_rows": summary.silver_rows,
                "oda.gold_rows": summary.gold_rows,
                "oda.stream_retained_bytes": sum(
                    self.broker.topic_bytes(t) for t in self.broker.topics()
                ),
                "oda.skipped_by_retention": skipped,
                "oda.windows_total": len(self.windows),
            }
            for name, value in gauges.items():
                METRICS.set_gauge(name, value, deterministic=True)
            batch = health_batch(METRICS, summary.t0, self._health_catalog)
            self.producer.send(
                HEALTH_TOPIC, batch, key="obs-health", timestamp=summary.t0
            )
            health_window = None
            if self.lineage is not None:
                health_window = self.lineage.record(
                    "topic_window",
                    (HEALTH_TOPIC, "obs-health", summary.t0),
                    attrs={"topic": HEALTH_TOPIC},
                )
            values = [
                r.value
                for _, recs in self._health_consumer.poll_slices(
                    max_records=None
                )
                for r in recs
            ]
            self._health_consumer.commit()
            silver = silver_aggregate(
                bronze_standardize(values),
                self._health_catalog,
                self.medallion.interval,
            )
            self._lineage_batch(HEALTH_DATASET, summary.t1, health_window)
            self.tiers.ingest(HEALTH_DATASET, silver, now=summary.t1)

    def run(self, t0: float, t1: float, window_s: float) -> list[WindowSummary]:
        """Drive consecutive windows across ``[t0, t1)``, back to back.

        With ``options.lifecycle`` on, the lifecycle manager ticks
        between windows at each due window's end time (simulated time,
        so runs replay deterministically).
        """
        # An infinite or NaN step makes every bound t0 + k * window_s
        # NaN (0 * inf is NaN), so the loop would run no window at all.
        if not 0 < window_s < math.inf:
            raise ValueError("window_s must be finite and positive")
        if (
            self.options.lifecycle
            and self.options.lifecycle_every_s is not None
            and self._next_lifecycle_at is None
        ):
            self._next_lifecycle_at = t0 + self.options.lifecycle_every_s
        summaries = []
        k = 0
        # Bounds are t0 + k * window_s, not a running sum: accumulating
        # a non-dyadic step drifts below t1 and appends a sliver window.
        while (a := t0 + k * window_s) < t1:
            b = min(t0 + (k + 1) * window_s, t1)
            summaries.append(self.run_window(a, b))
            if self._lifecycle_due(b):
                self._run_lifecycle(b)
            k += 1
        return summaries

    def _lifecycle_due(self, t_end: float) -> bool:
        """Is a lifecycle tick scheduled at this window boundary?"""
        if not self.options.lifecycle:
            return False
        if self.options.lifecycle_every_s is None:
            return True
        return self._next_lifecycle_at is not None and t_end >= self._next_lifecycle_at

    def _run_lifecycle(self, t_end: float) -> None:
        self.lifecycle.tick(t_end)
        if self.options.lifecycle_every_s is not None:
            self._next_lifecycle_at = t_end + self.options.lifecycle_every_s

    # -- serving --------------------------------------------------------------

    def serving_gateway(
        self,
        executor: str = "serial",
        admission=None,
        cache=None,
        cache_enabled: bool = True,
    ):
        """A :class:`~repro.serve.gateway.ServingGateway` over this
        deployment's apps.

        Stands up the UA dashboard, LVA and RATS against the live tier
        store and registers their canonical endpoints; the gateway's
        result cache invalidates on this store's ``data_version()``, so
        lifecycle ticks and window ingests age cached answers out
        automatically.  The ``fleet_power`` endpoint needs the
        lifecycle rollup and is only registered under
        ``options.lifecycle``.
        """
        from repro.apps.lva import LiveVisualAnalytics
        from repro.apps.rats import RatsReport
        from repro.apps.ua_dashboard import UserAssistanceDashboard
        from repro.scheduler.accounting import AccountingLedger
        from repro.serve import ServingGateway, build_endpoints

        dashboard = UserAssistanceDashboard(self.tiers.lake, self.allocation)
        lva = LiveVisualAnalytics(
            self.tiers, self.fleet.power.catalog, self.allocation
        )
        rats = RatsReport(AccountingLedger(), [])
        endpoints = build_endpoints(
            dashboard=dashboard, lva=lva, rats=rats, tiers=self.tiers
        )
        if not self.options.lifecycle:
            endpoints.pop("fleet_power", None)
        if not self.options.self_telemetry:
            endpoints.pop("framework_health", None)
        return ServingGateway(
            self.tiers,
            endpoints,
            admission=admission,
            cache=cache,
            executor=executor,
            cache_enabled=cache_enabled,
        )

    # -- reporting ------------------------------------------------------------

    def ingest_volumes(self) -> dict[str, float]:
        """Per-stream observed bytes/day extrapolated to machine scale."""
        return self.fleet.extrapolated_bytes_per_day()

    def tier_footprint(self) -> dict[str, int]:
        """Bytes per storage tier (plus retained STREAM bytes)."""
        footprint = self.tiers.footprint()
        footprint["stream"] = sum(
            self.broker.topic_bytes(t) for t in self.broker.topics()
        )
        return footprint
