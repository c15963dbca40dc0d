"""Token buckets, tenant policies, and the admission controller."""

import pytest

from repro.serve import (
    AdmissionController,
    AdmissionRejected,
    TenantPolicy,
    TokenBucket,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True,
            True,
            True,
            False,
        ]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        assert bucket.try_take(0.5)  # 0.5s * 2/s = 1 token back

    def test_refill_clamps_to_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        bucket.try_take(0.0)
        # A long idle period cannot bank more than `burst` tokens.
        assert bucket.try_take(100.0)
        assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_time_going_backwards_is_clamped(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(5.0)  # no negative refill, no crash
        assert bucket.try_take(11.0)

    def test_non_finite_clock_raises_and_leaves_the_bucket_alone(self):
        """A non-finite clock raises and changes nothing: taken as a
        time, NaN would cost the next arrival its refill."""
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(0.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                bucket.try_take(bad)
        assert bucket.try_take(10.0)
        assert not bucket.try_take(10.0)
        assert bucket.try_take(20.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=1.0).try_take(float("nan"))

    def test_backwards_clock_never_refills_an_interval_twice(self):
        """An arrival earlier than the last one refills nothing and
        keeps the clock, so the interval it skipped back over is not
        refilled again on the next forward arrival."""
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(3)] == [True] * 3
        assert bucket.try_take(2.0)  # 2 tokens back, 1 left
        assert bucket.try_take(0.0)  # backwards: takes the last one
        assert not bucket.try_take(2.0)  # [0, 2] was refilled already
        assert bucket.try_take(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.5)
        with pytest.raises(ValueError):
            TenantPolicy(queue_limit=0)


class TestAdmissionController:
    def test_quota_shed_is_deterministic(self):
        ctl = AdmissionController(TenantPolicy(rate_qps=1.0, burst=2.0))
        verdicts = []
        for _ in range(4):
            try:
                ctl.admit("t", now=0.0)
                verdicts.append("ok")
            except AdmissionRejected as exc:
                verdicts.append(exc.reason)
        assert verdicts == ["ok", "ok", "quota", "quota"]
        assert ctl.rejected == {"t": 2}

    def test_queue_full_shed(self):
        ctl = AdmissionController(
            TenantPolicy(rate_qps=100.0, burst=10.0, queue_limit=2)
        )
        ctl.admit("t", now=0.0)
        ctl.admit("t", now=0.0)
        with pytest.raises(AdmissionRejected) as exc:
            ctl.admit("t", now=0.0)
        assert exc.value.reason == "queue_full"
        assert exc.value.tenant == "t"
        ctl.release("t")
        ctl.admit("t", now=0.0)  # slot freed, admitted again
        assert ctl.inflight("t") == 2

    def test_tenants_are_isolated(self):
        ctl = AdmissionController(TenantPolicy(rate_qps=1.0, burst=1.0))
        ctl.admit("a", now=0.0)
        # a's dry bucket must not starve b.
        ctl.admit("b", now=0.0)
        with pytest.raises(AdmissionRejected):
            ctl.admit("a", now=0.0)

    def test_per_tenant_policy_override(self):
        ctl = AdmissionController(
            default_policy=TenantPolicy(rate_qps=1.0, burst=1.0),
            policies={"vip": TenantPolicy(rate_qps=100.0, burst=50.0)},
        )
        assert ctl.policy_for("vip").burst == 50.0
        assert ctl.policy_for("anyone").burst == 1.0
        for _ in range(10):
            ctl.admit("vip", now=0.0)
        assert ctl.inflight("vip") == 10

    def test_unmatched_release_raises(self):
        ctl = AdmissionController()
        with pytest.raises(ValueError):
            ctl.release("nobody")
