"""Regression tests for the concurrency bugs the interprocedural RACE
pass surfaced (PR-7): stale-restore fast-path toggles (now the one
``baseline_mode()`` switch), the unlocked RNG-stream cache and the
unlocked tier registry."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf import baseline
from repro.perf.baseline import baseline_mode
from repro.storage.tiers import DataClass, TieredStore
from repro.telemetry import MINI, synthetic_job_mix
from repro.util.rng import RngStreams
from tests.core import fast_path_probes


@pytest.mark.parametrize("decision", fast_path_probes.IDS)
def test_overlapping_toggles_restore_only_at_last_exit(monkeypatch, decision):
    # The old save/restore pattern (`prev = flag; ...; flag = prev`)
    # breaks on non-nested lifetimes: the first block to exit restores
    # the pre-entry value while the second is still open.  The depth
    # counter must keep the switch on — and every decision on its
    # reference path — until the *last* exit, regardless of exit order.
    took_reference = fast_path_probes.install(monkeypatch)[decision]
    assert not baseline.active() and not took_reference()
    open_blocks = [baseline_mode(), baseline_mode()]
    try:
        for block in open_blocks:
            block.__enter__()
        assert baseline.active() and took_reference()
        # non-LIFO: first in, first out
        open_blocks.pop(0).__exit__(None, None, None)
        assert baseline.active(), "stale restore: switch reverted early"
        assert took_reference(), "stale restore: fast path came back early"
        open_blocks.pop(0).__exit__(None, None, None)
    finally:
        for block in open_blocks:  # a failed check leaves no switch on
            block.__exit__(None, None, None)
    assert not baseline.active() and not took_reference()


def test_baseline_mode_still_composes_all_toggles():
    """Every fast-path decision the nine retired per-module toggles made
    now follows the one switch, read at call time: the utilization memo
    is not probed inside the block, and fills again after it."""
    allocation = synthetic_job_mix(MINI, 0.0, 600.0, np.random.default_rng(2))
    grid = (np.arange(MINI.n_nodes), np.arange(0.0, 300.0, 15.0))
    with baseline_mode():
        allocation.utilization(*grid)
        assert not allocation._util_memo
    allocation.utilization(*grid)
    assert allocation._util_memo


class TestRngStreamsLocking:
    def test_concurrent_get_returns_one_generator(self):
        streams = RngStreams(seed=7)
        gate = threading.Barrier(8)
        got: list = []

        def grab():
            gate.wait()
            got.append(streams.get("shared.stream"))

        threads = [
            threading.Thread(target=grab, name=f"rng-{i}") for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(got) == 8
        assert all(g is got[0] for g in got)

    def test_determinism_unchanged(self):
        a = RngStreams(seed=7).get("power.node-0").random()
        b = RngStreams(seed=7).get("power.node-0").random()
        assert a == b


class TestTieredStoreRegistry:
    def test_concurrent_register_and_lookup(self):
        store = TieredStore()
        names = [f"dataset-{i:02d}" for i in range(32)]
        gate = threading.Barrier(4)
        errors: list = []

        def register(chunk):
            gate.wait()
            for name in chunk:
                try:
                    store.register(name, DataClass.SILVER)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

        def read():
            gate.wait()
            for _ in range(64):
                store.datasets()

        threads = [
            threading.Thread(target=register, args=(names[:16],), name="reg-a"),
            threading.Thread(target=register, args=(names[16:],), name="reg-b"),
            threading.Thread(target=read, name="read-a"),
            threading.Thread(target=read, name="read-b"),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert set(store.datasets()) == set(names)

    def test_duplicate_registration_still_rejected(self):
        store = TieredStore()
        store.register("d", DataClass.GOLD)
        with pytest.raises(ValueError):
            store.register("d", DataClass.GOLD)
