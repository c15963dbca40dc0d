"""Per-tenant admission control: token-bucket quotas + bounded queues.

DCDB Wintermute's lesson, applied at the serving layer: push admission
into the gateway so an overloaded or greedy tenant is shed *before* it
scans data, and shed deterministically — the decision depends only on
the tenant's policy, its arrival history in virtual time, and how many
of its requests are currently queued, never on wall-clock racing.

All state here is touched from the gateway's arrival/collection loop;
see :class:`repro.serve.gateway.ServingGateway`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.errors import AdmissionRejected

__all__ = ["TokenBucket", "TenantPolicy", "AdmissionController"]


class TokenBucket:
    """Classic token bucket over an externally supplied clock.

    ``now`` is whatever monotone axis the caller runs on (the load
    harness uses simulated seconds), which keeps shedding decisions
    replayable: same arrivals at the same virtual times, same verdicts.
    """

    def __init__(self, rate: float, burst: float) -> None:
        # Negated comparisons, so NaN (for which every comparison is
        # false) is refused rather than admitting or shedding everything.
        if not rate > 0:
            raise ValueError("rate must be positive")
        if not burst >= 1:
            raise ValueError("burst must be at least one token")
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = None  # type: float | None

    def try_take(self, now: float) -> bool:
        """Refill to ``now`` and consume one token if available."""
        if self._last is None:
            self._last = now
        dt = max(0.0, now - self._last)
        self._last = now
        self.tokens = min(self.burst, self.tokens + dt * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission budget.

    rate_qps / burst:
        Token-bucket refill rate and capacity.
    queue_limit:
        Maximum requests the tenant may have queued-or-executing at
        once; arrivals beyond it shed with ``reason="queue_full"``.
    """

    rate_qps: float = 100.0
    burst: float = 20.0
    queue_limit: int = 32

    def __post_init__(self) -> None:
        if not self.queue_limit > 0:  # refuses NaN too
            raise ValueError("queue_limit must be positive")


class AdmissionController:
    """Admit-or-shed gate the gateway consults per arrival.

    Unknown tenants get ``default_policy``; per-tenant overrides come
    from ``policies``.  :meth:`admit` either raises
    :class:`AdmissionRejected` or reserves a queue slot the caller must
    give back with :meth:`release` when the request completes (cached
    and failed requests release immediately).
    """

    def __init__(
        self,
        default_policy: TenantPolicy | None = None,
        policies: dict[str, TenantPolicy] | None = None,
    ) -> None:
        self.default_policy = default_policy or TenantPolicy()
        self.policies = dict(policies or {})
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight: dict[str, int] = {}
        self.rejected: dict[str, int] = {}

    def policy_for(self, tenant: str) -> TenantPolicy:
        """The effective policy for a tenant."""
        return self.policies.get(tenant, self.default_policy)

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            policy = self.policy_for(tenant)
            bucket = self._buckets[tenant] = TokenBucket(
                policy.rate_qps, policy.burst
            )
        return bucket

    def inflight(self, tenant: str) -> int:
        """Requests currently holding a queue slot for the tenant."""
        return self._inflight.get(tenant, 0)

    def admit(self, tenant: str, now: float) -> None:
        """Admit one arrival at virtual time ``now`` or shed it.

        Raises :class:`AdmissionRejected` with ``reason="quota"`` when
        the token bucket is dry, ``reason="queue_full"`` when the
        tenant's bounded queue is at capacity.  On success the tenant
        holds one more queue slot until :meth:`release`.
        """
        policy = self.policy_for(tenant)
        if not self._bucket(tenant).try_take(now):
            self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
            raise AdmissionRejected(tenant, "quota")
        if self.inflight(tenant) >= policy.queue_limit:
            self.rejected[tenant] = self.rejected.get(tenant, 0) + 1
            raise AdmissionRejected(tenant, "queue_full")
        self._inflight[tenant] = self.inflight(tenant) + 1

    def release(self, tenant: str) -> None:
        """Return a queue slot reserved by a successful :meth:`admit`."""
        held = self.inflight(tenant)
        if held <= 0:
            raise ValueError(
                f"release without matching admit for tenant {tenant!r}"
            )
        self._inflight[tenant] = held - 1
