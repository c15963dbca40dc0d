"""ServingGateway: scheduling equivalence, caching, shedding, generations."""

import numpy as np
import pytest

from repro.obs import METRICS
from repro.serve import (
    AdmissionController,
    Request,
    ResultCache,
    ServingGateway,
    TenantPolicy,
)


class FakeTiers:
    """Stand-in store exposing only data_version()."""

    def __init__(self):
        self.version = 1

    def data_version(self):
        return self.version


def square(x):
    return {"x": x, "sq": np.array([x * x], dtype=np.float64)}


def boom():
    raise RuntimeError("endpoint exploded")


def make_gateway(executor="serial", **kwargs):
    tiers = FakeTiers()
    gateway = ServingGateway(
        tiers, {"square": square, "boom": boom}, executor=executor, **kwargs
    )
    return gateway, tiers


class TestServing:
    def test_basic_ok_envelope(self):
        gateway, _ = make_gateway()
        env = gateway.submit(Request.make("t", "square", x=3))
        assert env.status == "ok" and env.ok
        assert env.payload["sq"][0] == 9.0
        assert env.generation == 1
        assert env.digest is not None

    def test_unknown_endpoint_is_typed_error(self):
        gateway, _ = make_gateway()
        env = gateway.submit(Request.make("t", "nope"))
        assert env.status == "error"
        assert "unknown endpoint" in env.error
        assert not env.ok

    def test_endpoint_exception_becomes_error_envelope(self):
        gateway, _ = make_gateway()
        env = gateway.submit(Request.make("t", "boom"))
        assert env.status == "error"
        assert env.error == "RuntimeError: endpoint exploded"

    def test_envelopes_keep_submission_order(self):
        gateway, _ = make_gateway()
        requests = [Request.make("t", "square", x=i) for i in range(6)]
        envelopes = gateway.submit_many(requests)
        assert [e.request for e in envelopes] == requests
        assert [e.payload["x"] for e in envelopes] == list(range(6))
        assert len(gateway.last_service_times) == 6

    def test_executor_validation(self):
        with pytest.raises(ValueError):
            make_gateway(executor="processes")
        with pytest.raises(ValueError, match="DESIGN.md"):
            make_gateway(executor="threads")
        with pytest.raises(TypeError):
            make_gateway(max_workers=4)

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_executor_resolves_without_reading_the_host(
        self, monkeypatch, cpus
    ):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        for executor in ("serial", "auto"):
            gateway, _ = make_gateway(executor=executor)
            assert gateway.resolve_executor() == "serial"
        assert ServingGateway(None, {}).resolve_executor() == "serial"


class TestCaching:
    def test_cross_batch_hit_with_identical_digest(self):
        gateway, _ = make_gateway()
        request = Request.make("t", "square", x=5)
        first = gateway.submit(request)
        second = gateway.submit(request)
        assert first.status == "ok"
        assert second.status == "cached"
        assert second.digest == first.digest
        assert gateway.last_service_times == [0.0]  # cached: no service

    def test_within_batch_duplicates_both_execute(self):
        # The cache is probed only at arrival (before any execution), so
        # a within-batch twin misses — the price of scheduler-identical
        # envelopes.  Hits begin on the next batch.
        gateway, _ = make_gateway()
        request = Request.make("t", "square", x=1)
        statuses = [e.status for e in gateway.submit_many([request, request])]
        assert statuses == ["ok", "ok"]
        assert gateway.submit(request).status == "cached"

    def test_tenants_share_cache_entries(self):
        gateway, _ = make_gateway()
        gateway.submit(Request.make("alice", "square", x=7))
        env = gateway.submit(Request.make("bob", "square", x=7))
        assert env.status == "cached"

    def test_cache_disabled_never_serves_cached(self):
        gateway, _ = make_gateway(cache_enabled=False)
        request = Request.make("t", "square", x=5)
        assert gateway.submit(request).status == "ok"
        assert gateway.submit(request).status == "ok"
        assert len(gateway.cache) == 0

    def test_generation_move_invalidates(self):
        gateway, tiers = make_gateway()
        request = Request.make("t", "square", x=2)
        gateway.submit(request)
        assert gateway.submit(request).status == "cached"
        tiers.version = 2  # a committed mutation elsewhere
        env = gateway.submit(request)
        assert env.status == "ok"  # recomputed against the new generation
        assert env.generation == 2
        assert gateway.cache.invalidated >= 1
        assert (
            METRICS.gauge("serve.generation") == 2
        )

    def test_error_results_are_not_cached(self):
        gateway, _ = make_gateway()
        assert gateway.submit(Request.make("t", "boom")).status == "error"
        assert gateway.submit(Request.make("t", "boom")).status == "error"
        assert len(gateway.cache) == 0


class TestAdmission:
    def test_shed_sequence_is_deterministic(self):
        admission = AdmissionController(
            TenantPolicy(rate_qps=5.0, burst=3.0, queue_limit=2)
        )
        gateway, _ = make_gateway(admission=admission)
        requests = [Request.make("t", "square", x=i) for i in range(6)]
        envelopes = gateway.submit_many(requests, now=0.0)
        # burst=3 tokens, queue_limit=2: two admitted, third has a token
        # but no queue slot, rest are out of tokens.
        assert [e.status for e in envelopes] == [
            "ok",
            "ok",
            "rejected",
            "rejected",
            "rejected",
            "rejected",
        ]
        assert [e.error for e in envelopes[2:]] == [
            "queue_full",
            "quota",
            "quota",
            "quota",
        ]

    def test_slots_release_between_batches(self):
        admission = AdmissionController(
            TenantPolicy(rate_qps=1000.0, burst=100.0, queue_limit=2)
        )
        gateway, _ = make_gateway(admission=admission)
        for batch in range(3):
            requests = [
                Request.make("t", "square", x=100 * batch + i)
                for i in range(2)
            ]
            statuses = [
                e.status for e in gateway.submit_many(requests, now=batch)
            ]
            assert statuses == ["ok", "ok"]
        assert admission.inflight("t") == 0

    def test_cached_hits_do_not_hold_queue_slots(self):
        admission = AdmissionController(
            TenantPolicy(rate_qps=1000.0, burst=100.0, queue_limit=1)
        )
        gateway, _ = make_gateway(admission=admission)
        request = Request.make("t", "square", x=1)
        gateway.submit(request, now=0.0)
        for i in range(5):  # hits release immediately; never queue_full
            assert gateway.submit(request, now=float(i)).status == "cached"

    def test_shed_metric_labeled_by_reason(self):
        admission = AdmissionController(
            TenantPolicy(rate_qps=1.0, burst=1.0)
        )
        gateway, _ = make_gateway(admission=admission)
        before = METRICS.counter(
            "serve.shed", tenant="shed-tenant", reason="quota"
        )
        requests = [
            Request.make("shed-tenant", "square", x=i) for i in range(3)
        ]
        gateway.submit_many(requests, now=0.0)
        after = METRICS.counter(
            "serve.shed", tenant="shed-tenant", reason="quota"
        )
        assert after - before == 2
