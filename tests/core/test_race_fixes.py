"""Regression tests for the concurrency bugs the interprocedural RACE
pass surfaced (PR-7): stale-restore fast-path toggles, the unlocked
RNG-stream cache and the unlocked tier registry."""

from __future__ import annotations

import importlib
import threading

import pytest

from repro.storage.tiers import DataClass, TieredStore
from repro.util.rng import RngStreams

#: (module, context manager, flag, value while active, value when idle)
#: — every fast-path toggle baseline_mode() composes.
TOGGLES = [
    ("repro.pipeline.factorize", "cache_disabled", "_cache_enabled", False, True),
    ("repro.pipeline.factorize", "factorize_reference_mode", "_reference_mode", True, False),
    ("repro.columnar.encodings", "encoding_memo_disabled", "_memo_enabled", False, True),
    ("repro.columnar.encodings", "encoding_reference_mode", "_reference_mode", True, False),
    ("repro.columnar.compression", "compress_memo_disabled", "_memo_enabled", False, True),
    ("repro.columnar.file_format", "chunk_memo_disabled", "_chunk_memo_enabled", False, True),
    ("repro.telemetry.jobs", "utilization_memo_disabled", "_util_memo_enabled", False, True),
    ("repro.query.executor", "scan_reference_mode", "_scan_reference", True, False),
    ("repro.query.cache", "row_group_cache_disabled", "_cache_enabled", False, True),
]


@pytest.mark.parametrize(
    "module,cm_name,flag,active,idle",
    TOGGLES,
    ids=[f"{m.rsplit('.', 1)[-1]}.{c}" for m, c, *_ in TOGGLES],
)
def test_overlapping_toggles_restore_only_at_last_exit(
    module, cm_name, flag, active, idle
):
    # The old save/restore pattern (`prev = flag; ...; flag = prev`)
    # breaks on non-nested lifetimes: the first toggle to exit restores
    # the pre-entry value while the second is still open.  The depth
    # counter must keep the flag active until the *last* exit,
    # regardless of exit order.
    mod = importlib.import_module(module)
    cm = getattr(mod, cm_name)
    assert getattr(mod, flag) == idle
    first, second = cm(), cm()
    first.__enter__()
    second.__enter__()
    assert getattr(mod, flag) == active
    first.__exit__(None, None, None)  # non-LIFO: first in, first out
    assert getattr(mod, flag) == active, "stale restore: toggle reverted early"
    second.__exit__(None, None, None)
    assert getattr(mod, flag) == idle


def test_baseline_mode_still_composes_all_toggles():
    from repro.perf.baseline import baseline_mode

    with baseline_mode():
        for module, _, flag, active, _ in TOGGLES:
            assert getattr(importlib.import_module(module), flag) == active
    for module, _, flag, _, idle in TOGGLES:
        assert getattr(importlib.import_module(module), flag) == idle


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
