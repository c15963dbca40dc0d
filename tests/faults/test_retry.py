"""Unit tests for the retry/backoff policy — fully deterministic, no
real sleeping anywhere."""

import pytest

from repro.faults import (
    DEFAULT_RETRY_POLICY,
    RetryExhaustedError,
    RetryPolicy,
    call_with_retry,
)
from repro.obs import METRICS
from repro.stream.errors import FetchTimeoutError


class Flaky:
    """Callable failing the first ``n_failures`` invocations."""

    def __init__(self, n_failures, exc=None):
        self.n_failures = n_failures
        self.calls = 0
        self.exc = exc or FetchTimeoutError("test.site", "flaky")

    def __call__(self):
        self.calls += 1
        if self.calls <= self.n_failures:
            raise self.exc
        return "ok"


class TestRetryPolicy:
    def test_backoff_sequence_capped(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5
        )
        assert policy.delays() == (0.1, 0.2, 0.4, 0.5, 0.5)

    def test_default_policy(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 4
        assert DEFAULT_RETRY_POLICY.delays() == (0.05, 0.1, 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


class TestCallWithRetry:
    def test_transient_then_success(self):
        flaky = Flaky(2)
        before = METRICS.counter("faults.retry.test.site")
        assert call_with_retry(flaky, site="test.site") == "ok"
        assert flaky.calls == 3
        assert METRICS.counter("faults.retry.test.site") - before == 2

    def test_exhaustion_raises_with_cause_and_counts_giveup(self):
        flaky = Flaky(99)
        before = METRICS.counter("faults.giveup.test.site")
        with pytest.raises(RetryExhaustedError) as info:
            call_with_retry(
                flaky, policy=RetryPolicy(max_attempts=3), site="test.site"
            )
        assert flaky.calls == 3
        assert info.value.attempts == 3
        assert info.value.site == "test.site"
        assert isinstance(info.value.__cause__, FetchTimeoutError)
        assert METRICS.counter("faults.giveup.test.site") - before == 1

    def test_permanent_error_fails_fast(self):
        flaky = Flaky(99, exc=KeyError("not transient"))
        with pytest.raises(KeyError):
            call_with_retry(flaky, site="test.site")
        assert flaky.calls == 1  # no retry on permanent errors

    def test_injected_sleep_sees_deterministic_delays(self):
        slept = []
        flaky = Flaky(3)
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.1, multiplier=2.0, max_delay_s=10.0
        )
        call_with_retry(flaky, policy=policy, site="s", sleep=slept.append)
        assert slept == [0.1, 0.2, 0.4]

    def test_virtual_backoff_accounted_not_slept(self):
        flaky = Flaky(2)
        policy = RetryPolicy(
            max_attempts=4, base_delay_s=0.5, multiplier=2.0, max_delay_s=10.0
        )
        before = METRICS.counter("faults.backoff_virtual_s")
        call_with_retry(flaky, policy=policy, site="s")
        assert METRICS.counter("faults.backoff_virtual_s") - before == pytest.approx(
            0.5 + 1.0
        )

    def test_site_defaults_to_error_site(self):
        flaky = Flaky(1, exc=FetchTimeoutError("from.error", "x"))
        before = METRICS.counter("faults.retry.from.error")
        call_with_retry(flaky)  # no site= given
        assert METRICS.counter("faults.retry.from.error") - before == 1

    def test_single_attempt_policy_never_retries(self):
        flaky = Flaky(1)
        with pytest.raises(RetryExhaustedError):
            call_with_retry(
                flaky, policy=RetryPolicy(max_attempts=1), site="s"
            )
        assert flaky.calls == 1
