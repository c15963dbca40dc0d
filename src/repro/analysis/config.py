"""Repo-specific policy shared by the rule families.

The rules themselves are generic AST machinery; everything that encodes
*this* codebase's architecture — which packages form the deterministic
data plane, which layer may import which, where seeded RNG helpers live
— is collected here so a policy change is a one-file diff.
"""

from __future__ import annotations

__all__ = [
    "DATA_PLANE_PACKAGES",
    "RNG_ALLOWLIST_MODULES",
    "ALWAYS_ALLOWED_IMPORTS",
    "LAYER_ALLOWED_IMPORTS",
    "BASELINE_MODULE",
    "STREAM_PACKAGE",
    "RETRY_MODULE",
    "TRANSIENT_ERROR_NAMES",
    "SEED_SOURCE_FUNCTIONS",
    "SEED_PROPAGATING_CALLS",
]

#: Packages whose outputs must be bit-reproducible across runs, shard
#: counts and fast/reference paths.  DET rules apply here.
#: ``repro.faults`` is included on purpose: a fault run that consults
#: the wall clock or global RNG is not replayable, defeating the point.
DATA_PLANE_PACKAGES = frozenset(
    {
        "repro.stream",
        "repro.pipeline",
        "repro.columnar",
        "repro.core",
        "repro.faults",
        "repro.query",
        # Observability must be held to the same bar as what it observes:
        # span/trace IDs are derived from seeds and logical indices, so a
        # wall-clock or global-RNG call in repro.obs would silently break
        # trace replayability.  Durations use perf_counter (legal).
        "repro.obs",
        # The vectorized emitters and the splitmix helpers under them are
        # the definition of the synthetic ground truth: a stray wall-clock
        # or global-RNG call there breaks emit/emit_reference equality and
        # the split-invariance law.
        "repro.telemetry",
        "repro.util",
        # The serving plane answers with cached results whose validity is
        # a (fingerprint, generation) equation; wall-clock or global-RNG
        # influence on envelopes would break the gateway==direct-call
        # byte-equivalence the cache's correctness argument rests on.
        # Service-latency *measurement* uses perf_counter (legal).
        "repro.serve",
        # Lineage node IDs are pure functions of logical coordinates;
        # a wall-clock or global-RNG call here would break the
        # byte-identical catalog exports the equivalence tests hold
        # baseline/fast-path/sharded runs to.
        "repro.lineage",
    }
)

#: Modules exempt from DET rules even when nested in a checked package:
#: the seeded-stream factory itself, and the perf harness (timers are
#: wall-clock by design).
RNG_ALLOWLIST_MODULES = ("repro.util.rng", "repro.perf")

#: Module holding the one fast-path switch every oracle-pairing module
#: must read (ORACLE001).
BASELINE_MODULE = "repro.perf.baseline"

#: Package whose error paths must raise the typed broker errors
#: (EXC003).
STREAM_PACKAGE = "repro.stream"

#: The only module allowed to catch the broker's transient error types
#: (EXC004).  Everything else must go through its ``call_with_retry``
#: so retries and give-ups are policy-driven and counted, never ad-hoc.
RETRY_MODULE = "repro.faults.retry"

#: The transient (retry-safe) error types, by class name.  Matching is
#: by final name component so both ``except FetchTimeoutError`` and
#: ``except errors.FetchTimeoutError`` are caught.
TRANSIENT_ERROR_NAMES = frozenset(
    {
        "TransientStreamError",
        "FetchTimeoutError",
        "ProduceUnavailableError",
        "TransientTierError",
    }
)

#: Packages every layer may import: itself, the ``repro`` root facade,
#: pure helpers (``util``) and the cross-cutting instrumentation spines
#: (``perf`` and ``obs`` — their registries import nothing of the data
#: plane eagerly; exporters reach telemetry/perf lazily, at call time).
ALWAYS_ALLOWED_IMPORTS = frozenset(
    {"repro", "repro.util", "repro.perf", "repro.obs", "repro.lineage"}
)

#: The hourglass layering.  ``package -> packages it may import`` (plus
#: ``ALWAYS_ALLOWED_IMPORTS`` and itself).  ``repro.core`` is the
#: orchestration waist and may import everything, as may root modules.
#: Notable prohibitions the paper's trust model demands: ``telemetry``
#: (raw producers) must not reach up into ``storage``/``apps``, and
#: ``columnar`` (pure kernels) must not know about ``stream`` transport.
LAYER_ALLOWED_IMPORTS: dict[str, frozenset[str]] = {
    "repro.util": frozenset(),
    "repro.telemetry": frozenset({"repro.columnar"}),
    "repro.stream": frozenset({"repro.faults"}),
    "repro.analysis": frozenset(),
    "repro.columnar": frozenset(),
    # The lineage catalog is a cross-cutting spine like repro.obs:
    # every layer may record into it (it is in ALWAYS_ALLOWED_IMPORTS),
    # and it imports nothing of the data plane — the store-side
    # reconcile pass lives in repro.storage, which owns the manifest
    # knowledge.
    "repro.lineage": frozenset(),
    # The read plane is pure kernels over columnar data: it may not know
    # about storage topology (plans arrive as metadata, bytes are fed in
    # by the caller), which is what lets LAKE and OCEAN share it.
    "repro.query": frozenset({"repro.columnar"}),
    "repro.perf": frozenset(
        {"repro.columnar", "repro.pipeline", "repro.query", "repro.telemetry"}
    ),
    # The obs spine mirrors perf: import-light at module level, with
    # lazy call-time imports of telemetry (self-telemetry batches) and
    # perf (merged snapshots).  The import rule counts function-level
    # imports too, so both must be listed.
    "repro.obs": frozenset({"repro.telemetry", "repro.perf"}),
    "repro.pipeline": frozenset(
        {"repro.columnar", "repro.telemetry", "repro.stream", "repro.faults"}
    ),
    "repro.storage": frozenset(
        {"repro.columnar", "repro.query", "repro.telemetry", "repro.faults"}
    ),
    # The fault layer wraps the data plane (broker, checkpoints, tiers)
    # and its retry module is imported back by stream/pipeline/storage —
    # a deliberate, narrow cycle confined to repro.faults.retry, which
    # itself only needs repro.stream.errors.
    "repro.faults": frozenset(
        {"repro.stream", "repro.pipeline", "repro.storage", "repro.columnar"}
    ),
    "repro.scheduler": frozenset({"repro.telemetry"}),
    "repro.ml": frozenset({"repro.columnar", "repro.pipeline"}),
    "repro.governance": frozenset({"repro.columnar"}),
    "repro.twin": frozenset({"repro.telemetry"}),
    "repro.apps": frozenset(
        {
            "repro.columnar",
            "repro.pipeline",
            "repro.storage",
            "repro.scheduler",
            "repro.telemetry",
        }
    ),
    # The serving plane fronts the read-side apps for many tenants: it
    # may call apps and the read plane (plus storage duck-typed via the
    # objects handed to it), but never reaches past them into telemetry
    # producers or columnar internals — clients of the hourglass, not
    # parts of its waist.
    "repro.serve": frozenset({"repro.apps", "repro.query"}),
    "repro.core": frozenset(
        {
            "repro.apps",
            "repro.columnar",
            "repro.faults",
            "repro.governance",
            "repro.ml",
            "repro.perf",
            "repro.pipeline",
            "repro.scheduler",
            "repro.serve",
            "repro.storage",
            "repro.stream",
            "repro.telemetry",
            "repro.twin",
        }
    ),
}

#: Functions whose return value is a *trusted* deterministic seed: the
#: root of the DET010 taint lattice.  Matching is by full dotted name or
#: by final name component (so in-module helpers named ``derive_seed``
#: count without an import chain to follow).
SEED_SOURCE_FUNCTIONS = frozenset(
    {
        "repro.util.rng.derive_seed",
        "derive_seed",
    }
)

#: Pure value-preserving calls the seed taint flows through unchanged
#: (casts and arithmetic reductions of already-tainted inputs).
SEED_PROPAGATING_CALLS = frozenset(
    {
        "int",
        "abs",
        "hash",
        "str",
        "len",
        "min",
        "max",
        "sum",
        "numpy.uint64",
        "numpy.int64",
        "numpy.uint32",
        "numpy.int32",
    }
)
