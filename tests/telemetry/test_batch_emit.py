"""Batched ``emit`` must be byte-identical to ``emit_reference``.

The benchmark's speedup claim rests on the fast emission path changing
nothing but wall time.  Every vectorized source is held to its original
per-channel loop implementation bit for bit, including the idle-node
short-circuit in the perf-counter source (all-idle and partially idle
windows are exercised explicitly).
"""

import numpy as np
import pytest

from repro.perf import baseline_mode
from repro.telemetry import MINI, FleetTelemetry, synthetic_job_mix

HORIZON_S = 240.0

#: [t0, t1) windows: aligned, unaligned, empty, and — past the job
#: horizon — an all-idle window for the perf-counter short-circuit.
WINDOWS = [
    (0.0, 30.0),
    (30.0, 60.0),
    (95.0, 127.5),
    (50.0, 50.0),
    (HORIZON_S + 60.0, HORIZON_S + 90.0),
]


@pytest.fixture(scope="module")
def fleet():
    rng = np.random.default_rng(5)
    allocation = synthetic_job_mix(MINI, 0.0, HORIZON_S, rng)
    return FleetTelemetry(MINI, allocation, seed=9)


def assert_batches_identical(fast, ref):
    assert type(fast) is type(ref)
    assert len(fast) == len(ref)
    for name in ("timestamps", "component_ids", "sensor_ids", "values",
                 "severities", "message_ids"):
        a = getattr(fast, name, None)
        b = getattr(ref, name, None)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("source_name",
                         ["power", "perf", "storage_io", "interconnect"])
@pytest.mark.parametrize("window", WINDOWS, ids=lambda w: f"{w[0]}-{w[1]}")
def test_emit_matches_reference(fleet, source_name, window):
    source = getattr(fleet, source_name)
    t0, t1 = window
    assert_batches_identical(source.emit(t0, t1), source.emit_reference(t0, t1))


def test_idle_windows_actually_exercise_the_skip(fleet):
    """The parametrized windows must cover idle and active cells, or the
    perf source's idle short-circuit is never really tested."""
    t0, t1 = WINDOWS[-1]
    mid = np.array([(t0 + t1) / 2])
    gpu_u, _, _ = fleet.allocation.utilization(fleet.nodes, mid)
    assert (gpu_u == 0.0).all()  # fully idle past the job horizon
    gpu_u, _, _ = fleet.allocation.utilization(fleet.nodes, np.array([15.0]))
    assert (gpu_u > 0.0).any()  # and genuinely busy inside it


def test_partially_idle_window_matches(fleet):
    """A window straddling the job horizon mixes idle and active nodes."""
    t0, t1 = HORIZON_S - 15.0, HORIZON_S + 15.0
    for name in ("power", "perf", "storage_io", "interconnect"):
        source = getattr(fleet, name)
        assert_batches_identical(
            source.emit(t0, t1), source.emit_reference(t0, t1)
        )


def test_fleet_reference_flag_is_byte_identical():
    """``emit_window`` under ``baseline_mode()`` (each source's
    ``emit_reference``) emits the bytes of the batched path."""
    rng = np.random.default_rng(5)
    allocation = synthetic_job_mix(MINI, 0.0, HORIZON_S, rng)
    fast = FleetTelemetry(MINI, allocation, seed=9)
    ref = FleetTelemetry(MINI, allocation, seed=9)
    for t0 in (0.0, 30.0, 60.0):
        fb = fast.emit_window(t0, t0 + 30.0)
        with baseline_mode():
            rb = ref.emit_window(t0, t0 + 30.0)
        assert fb.keys() == rb.keys()
        for topic in fb:
            assert_batches_identical(fb[topic], rb[topic])
    assert {n: (v.rows, v.raw_bytes) for n, v in fast.volumes.items()} == {
        n: (v.rows, v.raw_bytes) for n, v in ref.volumes.items()
    }
