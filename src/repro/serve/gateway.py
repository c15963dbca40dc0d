"""The serving gateway: admission -> cache -> execution.

One object fronts the read-side apps (UA dashboard, LVA, RATS) for many
tenants, the way production ODA deployments put a service layer between
dashboards and the telemetry store instead of letting every client scan
raw data.  A batch of arrivals flows through three stages:

1. **Arrival loop** (submission order): admission control per tenant
   — token-bucket quota, bounded queue, typed fast-fail — then a
   result-cache probe keyed ``(fingerprint, store generation)``.  The
   whole batch is probed *before* any of it executes, so a request's
   status never depends on whether a twin in the same batch ran first.
2. **Execution**: admitted misses run inline, in submission order.
3. **Collection loop**: cache fills, queue slots released, envelopes
   assembled.

Everything the caller can observe in an envelope is deterministic;
wall-clock service times are tracked out-of-band (for the serving
bench) in :attr:`ServingGateway.last_service_times`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Sequence

from repro.obs import METRICS, TRACER
from repro.serve.admission import AdmissionController
from repro.serve.cache import ResultCache
from repro.serve.envelope import Request, ResultEnvelope, payload_digest
from repro.serve.errors import AdmissionRejected

__all__ = ["ServingGateway"]


class ServingGateway:
    """Multi-tenant request front for the analytics apps.

    Parameters
    ----------
    tiers:
        The :class:`~repro.storage.tiers.TieredStore` whose
        ``data_version()`` drives cache invalidation (None pins the
        generation to 0 — for stores that never mutate mid-test).
    endpoints:
        Name -> callable(**params).  Callables must return payloads in
        the closed vocabulary :func:`repro.serve.envelope.payload_digest`
        accepts, and must be deterministic functions of the store state
        (see :mod:`repro.serve.endpoints` for the canonical adapters).
    admission, cache:
        Policy objects (defaults: permissive controller, 1024-entry LRU).
    executor:
        Retired selector, kept only because the frozen
        ``benchmarks/full`` harness still passes it: ``"serial"`` (the
        default) and ``"auto"`` both mean inline execution;
        ``"threads"`` raises ``ValueError``.
    cache_enabled:
        ``False`` bypasses the cache entirely (the bench's baseline).
    """

    def __init__(
        self,
        tiers,
        endpoints: dict[str, Callable[..., Any]],
        admission: AdmissionController | None = None,
        cache: ResultCache | None = None,
        executor: str = "serial",
        cache_enabled: bool = True,
    ) -> None:
        if executor not in ("serial", "auto"):
            raise ValueError(
                f"executor must be 'serial' or 'auto', got {executor!r}: "
                "requests execute inline (DESIGN.md §8, Concurrency model)"
            )
        self.tiers = tiers
        self.endpoints = dict(endpoints)
        self.admission = admission or AdmissionController()
        self.cache = cache or ResultCache()
        self.cache_enabled = cache_enabled
        self._generation: int | None = None
        #: Prior fresh computations per (tenant, endpoint, fingerprint)
        #: — the ``seq`` coordinate of envelope lineage nodes, advanced
        #: on the arrival loop in submission order.
        self._envelope_seq: dict[tuple[str, str, str], int] = {}
        #: Wall service seconds per request of the most recent
        #: :meth:`submit_many` batch (0.0 for rejected/cached/unknown),
        #: aligned with the returned envelopes.  Measurement only —
        #: never feeds back into any envelope field.
        self.last_service_times: list[float] = []

    # -- lifecycle ----------------------------------------------------------

    def resolve_executor(self) -> str:
        """Always ``"serial"`` (the name the full-path bench records)."""
        return "serial"

    def close(self) -> None:
        """Nothing to release; kept for ``with`` blocks."""

    def __enter__(self) -> "ServingGateway":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- generation ---------------------------------------------------------

    def generation(self) -> int:
        """The store generation requests are currently served against."""
        return self.tiers.data_version() if self.tiers is not None else 0

    def _refresh_generation(self) -> int:
        gen = self.generation()
        if gen != self._generation:
            if self._generation is not None and self.cache_enabled:
                pruned = self.cache.prune_stale(gen)
                if pruned:
                    METRICS.inc("serve.cache_invalidated", pruned)
            self._generation = gen
            METRICS.set_gauge("serve.generation", gen, deterministic=True)
        return gen

    # -- serving ------------------------------------------------------------

    def submit(self, request: Request, now: float = 0.0) -> ResultEnvelope:
        """Serve one request (see :meth:`submit_many`)."""
        return self.submit_many([request], now=now)[0]

    def submit_many(
        self, requests: Sequence[Request], now: float = 0.0
    ) -> list[ResultEnvelope]:
        """Serve a batch of arrivals at virtual time ``now``.

        Envelopes come back in submission order; ``now`` only feeds
        admission's token buckets (virtual time keeps shedding
        replayable).
        """
        gen = self._refresh_generation()
        cat = getattr(self.tiers, "lineage", None)
        n = len(requests)
        envelopes: list[ResultEnvelope | None] = [None] * n
        times = [0.0] * n
        to_run: list[tuple[int, Request, str, int]] = []

        for i, request in enumerate(requests):
            with TRACER.span(
                "serve.admit",
                tenant=request.tenant,
                endpoint=request.endpoint,
            ):
                envelopes[i] = self._admit_one(i, request, now, gen, to_run)

        results = [self._execute_one(i, r) for i, r, _, _ in to_run]

        for (i, request, fingerprint, seq), (payload, error, dt, reads) in zip(
            to_run, results
        ):
            times[i] = dt
            self.admission.release(request.tenant)
            if error is not None:
                envelopes[i] = ResultEnvelope(
                    request, "error", error=error, generation=gen
                )
                self._count(request, "error")
            else:
                digest = payload_digest(payload)
                if self.cache_enabled:
                    self.cache.put(fingerprint, gen, payload, digest)
                if cat is not None:
                    nid = cat.record(
                        "envelope",
                        (request.tenant, request.endpoint, fingerprint, seq),
                        attrs={
                            "tenant": request.tenant,
                            "endpoint": request.endpoint,
                        },
                    )
                    cat.link_many(sorted(set(reads)), nid, "read")
                envelopes[i] = ResultEnvelope(
                    request,
                    "ok",
                    payload=payload,
                    generation=gen,
                    digest=digest,
                )
                self._count(request, "ok")

        self.last_service_times = times
        return envelopes  # type: ignore[return-value]

    def _admit_one(
        self,
        index: int,
        request: Request,
        now: float,
        gen: int,
        to_run: list[tuple[int, Request, str, int]],
    ) -> ResultEnvelope | None:
        """Arrival-stage verdict: an immediate envelope, or None with the
        request appended to ``to_run`` for execution."""
        if request.endpoint not in self.endpoints:
            self._count(request, "error")
            return ResultEnvelope(
                request,
                "error",
                error=f"unknown endpoint {request.endpoint!r}",
                generation=gen,
            )
        try:
            self.admission.admit(request.tenant, now)
        except AdmissionRejected as exc:
            METRICS.inc(
                "serve.shed", tenant=request.tenant, reason=exc.reason
            )
            self._count(request, "rejected")
            return ResultEnvelope(
                request, "rejected", error=exc.reason, generation=gen
            )
        fingerprint = request.fingerprint()
        if self.cache_enabled:
            hit = self.cache.get(fingerprint, gen)
            if hit is not None:
                payload, digest = hit
                self.admission.release(request.tenant)
                self._count(request, "cached")
                return ResultEnvelope(
                    request,
                    "cached",
                    payload=payload,
                    generation=gen,
                    digest=digest,
                )
        seq_key = (request.tenant, request.endpoint, fingerprint)
        seq = self._envelope_seq.get(seq_key, 0)
        self._envelope_seq[seq_key] = seq + 1
        to_run.append((index, request, fingerprint, seq))
        return None

    def _execute_one(
        self, index: int, request: Request
    ) -> tuple[Any, str | None, float, list]:
        """``(payload, error, wall seconds, lineage nodes read)`` for one miss.

        The span carries the request's batch index in its name
        (``serve.request:<index>``).
        """
        collect = getattr(self.tiers, "collect_reads", None)
        fn = self.endpoints[request.endpoint]
        kwargs = request.kwargs()
        t0 = perf_counter()
        reads: list = []
        with TRACER.span(
            f"serve.request:{index}",
            tenant=request.tenant,
            endpoint=request.endpoint,
        ):
            try:
                if collect is not None:
                    with collect() as reads:
                        payload = fn(**kwargs)
                else:
                    payload = fn(**kwargs)
            except Exception as exc:
                return (
                    None,
                    f"{type(exc).__name__}: {exc}",
                    perf_counter() - t0,
                    [],
                )
        return payload, None, perf_counter() - t0, reads

    def _count(self, request: Request, status: str) -> None:
        METRICS.inc(
            "serve.requests",
            tenant=request.tenant,
            endpoint=request.endpoint,
            status=status,
        )
