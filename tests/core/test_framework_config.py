"""Unit tests for ODAFramework configuration validation."""

import numpy as np
import pytest

from repro.core import DataPlaneOptions, ODAFramework
from repro.faults.retry import RetryPolicy
from repro.obs.span import Tracer
from repro.query import row_group_cache_stats, set_row_group_cache_limit
from repro.serve.admission import TenantPolicy, TokenBucket
from repro.serve.cache import ResultCache
from repro.storage.rollup import RollupSpec
from repro.storage.tiers import TierPolicy
from repro.stream.retention import RetentionPolicy
from repro.telemetry import MINI, synthetic_job_mix
from repro.telemetry.schema import SensorSpec


@pytest.fixture(scope="module")
def allocation():
    return synthetic_job_mix(MINI, 0.0, 1800.0, np.random.default_rng(29))


class TestRefineStreamConfig:
    def test_unknown_stream_rejected(self, allocation):
        with pytest.raises(ValueError, match="unknown streams"):
            ODAFramework(MINI, allocation, refine_streams=("power", "nope"))

    def test_power_required(self, allocation):
        with pytest.raises(ValueError, match="power"):
            ODAFramework(MINI, allocation, refine_streams=("storage_io",))

    def test_syslog_not_refinable(self, allocation):
        with pytest.raises(ValueError, match="not refinable"):
            ODAFramework(MINI, allocation, refine_streams=("power", "syslog"))

    def test_power_only_configuration(self, allocation):
        framework = ODAFramework(MINI, allocation, refine_streams=("power",))
        framework.run_window(0.0, 60.0)
        assert framework.tiers.query_online("power.silver").num_rows > 0
        # The unrefined stream has no lake table (empty result, no rows).
        assert framework.tiers.query_online("storage_io.silver").num_rows == 0
        assert "storage_io.silver" not in framework.tiers.datasets()

    def test_perf_counters_refinable(self, allocation):
        framework = ODAFramework(
            MINI, allocation, refine_streams=("power", "perf_counters")
        )
        framework.run_window(0.0, 30.0)
        silver = framework.tiers.query_online("perf_counters.silver")
        assert silver.num_rows > 0
        assert "gpu0_occupancy_pct" in silver


class TestStreamRetentionConfig:
    def test_short_retention_trims_broker(self, allocation):
        framework = ODAFramework(
            MINI, allocation, stream_retention_s=30.0,
            refine_streams=("power",),
        )
        framework.run(0.0, 300.0, window_s=60.0)
        # Only the last retention window of records survives.
        retained = sum(
            framework.broker.topic_records(t)
            for t in framework.broker.topics()
        )
        assert retained <= 2 * len(framework.broker.topics())


_NAN = float("nan")


@pytest.mark.parametrize(
    "make",
    [
        lambda: TierPolicy(lake_retention_s=_NAN, ocean_retention_s=1.0, glacier=False),
        lambda: TierPolicy(lake_retention_s=1.0, ocean_retention_s=_NAN, glacier=False),
        lambda: TierPolicy(
            lake_retention_s=1.0, ocean_retention_s=1.0, glacier=True,
            freeze_after_s=_NAN,
        ),
        lambda: RetentionPolicy(max_age_s=_NAN),
        lambda: RetentionPolicy(max_bytes=_NAN),
        lambda: DataPlaneOptions(lifecycle=True, lifecycle_every_s=_NAN),
        lambda: TokenBucket(rate=_NAN, burst=2),
        lambda: TokenBucket(rate=1.0, burst=_NAN),
    ],
    ids=[
        "lake_retention_s", "ocean_retention_s", "freeze_after_s",
        "max_age_s", "max_bytes", "lifecycle_every_s", "rate", "burst",
    ],
)
def test_nan_policy_inputs_rejected(make):
    """A NaN slips past ``x <= 0`` (every comparison with NaN is false):
    a NaN rate admitted every take, a NaN lifecycle period never came
    due.  Each policy input refuses it like any other non-positive."""
    with pytest.raises(ValueError):
        make()


def test_infinite_retention_still_means_forever():
    policy = TierPolicy(
        lake_retention_s=float("inf"), ocean_retention_s=float("inf"),
        glacier=False,
    )
    assert policy.lake_retention_s == float("inf")
    assert RetentionPolicy(max_age_s=float("inf")).max_age_s == float("inf")


@pytest.fixture
def cache_budget():
    """Puts the row-group cache's byte budget back after the test."""
    limit = row_group_cache_stats()["max_bytes"]
    yield
    set_row_group_cache_limit(limit)


@pytest.mark.parametrize(
    "make",
    [
        lambda: RetryPolicy(base_delay_s=_NAN),
        lambda: RetryPolicy(multiplier=_NAN),
        lambda: RetryPolicy(max_delay_s=_NAN),
        lambda: SensorSpec("p", "W", _NAN, "node"),
        lambda: RollupSpec("r", "d", ("node",), "value", bucket_s=_NAN),
        lambda: ResultCache(capacity=_NAN),
        lambda: Tracer(max_spans=_NAN),
        lambda: TenantPolicy(queue_limit=_NAN),
        lambda: set_row_group_cache_limit(_NAN),
    ],
    ids=[
        "base_delay_s", "multiplier", "max_delay_s", "sample_period_s",
        "bucket_s", "capacity", "max_spans", "queue_limit", "cache_limit",
    ],
)
def test_nan_bounds_rejected(make, cache_budget):
    """The other positive or non-negative bounds let NaN through the
    same way: a NaN backoff delay, a NaN multiplier that made every
    later delay NaN, a NaN cap that capped nothing, a result cache or
    row-group cache budget that never evicted.  Each refuses it."""
    with pytest.raises(ValueError):
        make()


def test_infinite_bounds_still_accepted(cache_budget):
    inf = float("inf")
    uncapped = RetryPolicy(max_attempts=7, max_delay_s=inf).delays()
    assert uncapped == (0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
    assert ResultCache(capacity=inf).capacity == inf
    assert Tracer(max_spans=inf).max_spans == inf
    assert TenantPolicy(queue_limit=inf).queue_limit == inf
    set_row_group_cache_limit(inf)
    assert row_group_cache_stats()["max_bytes"] == inf
