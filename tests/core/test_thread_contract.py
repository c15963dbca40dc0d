"""The thread contract, run rather than asserted (DESIGN.md §8).

The library executes every window, scan and request on the calling
thread, but "callers may drive it from threads of their own" is part of
its contract, and each ``threading.Lock()`` in src exists to keep that
true.  Every case below releases 8 threads at once onto a public entry
point and then checks the structure's *own* invariant — byte ledgers
that add up, indexes that mirror their cache, counters that equal the
calls made, answers equal to the uncached ones.  Nothing is timed and
every input is seed-pure, so a failure is a lost update, not a flake.

Locks already driven from threads elsewhere (``METRICS``,
``RngStreams``, the ``TieredStore`` registry and part allocation) are
listed with their tests in the DESIGN.md §8 table.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.apps.copacetic import CopaceticEngine
from repro.columnar import ColumnTable
from repro.lineage.catalog import LineageCatalog
from repro.obs.span import Tracer
from repro.perf import baseline
from repro.perf.baseline import baseline_mode
from repro.query import cache as rg_cache
from repro.serve.cache import ResultCache
from repro.storage import DataClass, TieredStore
from repro.storage.rollup import GoldRollup, RollupSpec
from repro.telemetry.jobs import AllocationTable, JobSpec
from repro.telemetry.schema import SEVERITY_IDS, EventBatch
from tests.core import fast_path_probes
from tests.storage.compaction_oracle import fresh_live, live_metas

N_THREADS = 8
ROUNDS = 25


def hammer(work) -> None:
    """Run ``work(i)`` on ``N_THREADS`` threads released together and
    re-raise the first failure any of them hit.

    The interpreter is asked to switch threads as often as it can for
    the duration: under the GIL a lost update needs a switch between
    one bytecode and the next, and the default 5 ms interval almost
    never lands one there."""
    gate = threading.Barrier(N_THREADS)
    errors: list[BaseException] = []

    def run(i: int) -> None:
        gate.wait()
        try:
            work(i)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(i,), name=f"contract-{i}")
        for i in range(N_THREADS)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]


@pytest.fixture(autouse=True)
def cold_process_state():
    """The row-group cache is process-wide: start each case cold, leave
    it cold and at its shipped size."""

    def reset():
        rg_cache.clear_row_group_cache()
        rg_cache.set_row_group_cache_limit(64 << 20)

    reset()
    yield
    reset()


def order(i: int, n: int) -> list[int]:
    """Thread ``i``'s own fixed visiting order over ``n`` inputs."""
    return np.random.default_rng(i).permutation(n).tolist()


# -- row-group cache ----------------------------------------------------------


def test_row_group_cache_ledgers_add_up():
    keys = [(f"tok{t}", g, "v") for t in range(4) for g in range(6)]
    value = {key: float(n) for n, key in enumerate(keys)}
    # Room for 10 of the 24 arrays: eviction and invalidation
    # interleave.
    rg_cache.set_row_group_cache_limit(10 * 64 * 8)

    def work(i):
        for r in range(ROUNDS):
            for n in order(i, len(keys)):
                key = keys[n]
                arr, _hit = rg_cache.load_column(
                    *key, lambda key=key: np.full(64, value[key])
                )
                assert arr.shape == (64,) and arr[0] == value[key]
            if r % 5 == i % 5:
                rg_cache.invalidate_token(f"tok{i % 4}")

    hammer(work)
    stats = rg_cache.row_group_cache_stats()
    resident = set(rg_cache._cache)
    assert stats["entries"] == len(resident) > 0
    assert stats["bytes"] == sum(rg_cache._weights.values()) <= stats["max_bytes"]
    assert set(rg_cache._weights) == resident
    assert {
        key for token_keys in rg_cache._token_keys.values() for key in token_keys
    } == resident
    for token, token_keys in rg_cache._token_keys.items():
        assert token_keys and all(key[0] == token for key in token_keys)


def _same(got, want) -> bool:
    if isinstance(want, tuple):
        return all(np.array_equal(g, w) for g, w in zip(got, want))
    return got == want


def test_utilization_memo_matches_uncached():
    table = AllocationTable(
        [
            JobSpec(j, "u", "p", "hpl", np.arange(j * 4, j * 4 + 4), 0.0, 900.0)
            for j in range(4)
        ]
    )
    nodes = np.arange(16)
    grids = [np.arange(10.0) * 15.0 + g for g in range(20)]  # > memo size
    with baseline_mode():
        expected = [table.utilization(nodes, times) for times in grids]

    def work(i):
        for _ in range(5):
            for n in order(i, len(grids)):
                assert _same(table.utilization(nodes, grids[n]), expected[n])

    hammer(work)
    assert 0 < len(table._util_memo) <= table._util_memo_max


# -- result cache, catalog, rollup, tracer, engine ----------------------------


def test_result_cache_counters_equal_calls():
    cache = ResultCache(capacity=16)
    gets = [0] * N_THREADS

    def work(i):
        for r in range(ROUNDS):
            gen = r // 5
            for n in order(i, 40):
                hit = cache.get(f"fp{n}", gen)
                gets[i] += 1
                if hit is None:
                    cache.put(f"fp{n}", gen, (n, gen), f"d{n}")
                else:
                    assert hit == ((n, gen), f"d{n}")
            if r % 5 == 4:
                cache.prune_stale(gen + 1)

    hammer(work)
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == sum(gets)
    assert stats["size"] == len(cache) <= cache.capacity
    assert stats["evicted"] > 0 and stats["invalidated"] > 0


def test_lineage_catalog_merges_identities():
    cat = LineageCatalog()
    idents = [("d", f"part-{n:03d}") for n in range(50)]

    def work(i):
        for n in order(i, len(idents)):
            nid = cat.record("part", idents[n], attrs={f"seen_by_{i}": True})
            cat.link(nid, cat.record("dataset", ("d",)), "derived")

    hammer(work)
    assert len(cat) == len(idents) + 1
    assert len(cat.edges()) == len(idents)
    for node in cat.nodes("part"):
        assert node["attrs"] == {f"seen_by_{i}": True for i in range(N_THREADS)}


def test_gold_rollup_keeps_every_partial():
    spec = RollupSpec("power_by_node", "d", ("node",), "value", bucket_s=None)

    def part(i, n):
        return ColumnTable(
            {
                "timestamp": np.arange(8, dtype=float),
                "node": np.arange(8) % 4.0,
                "value": np.arange(8, dtype=float) + 10 * i + n,
            }
        )

    rollup = GoldRollup(spec)

    def work(i):
        for n in range(10):
            rollup.observe_part(f"t{i}/p{n}", part(i, n))
            rollup.merged()
        for n in range(0, 10, 2):
            assert rollup.drop_part(f"t{i}/p{n}")

    hammer(work)
    survivors = {
        f"t{i}/p{n}": part(i, n)
        for i in range(N_THREADS)
        for n in range(1, 10, 2)
    }
    assert rollup.part_keys() == set(survivors)
    assert rollup.version == N_THREADS * 15
    serial = GoldRollup(spec)
    for key, table in survivors.items():
        serial.observe_part(key, table)
    assert rollup.merged() == serial.merged()


def test_tracer_hands_out_each_sequence_number_once():
    tracer = Tracer(max_spans=300)
    children = 50

    def work(i):
        with tracer.trace(seed=7, name="contract", index=0):
            for _ in range(children):
                with tracer.span("step"):
                    pass

    hammer(work)
    total = N_THREADS * (children + 1)
    finished = tracer.finished()
    assert len(finished) == tracer.max_spans
    assert len(finished) + tracer.dropped == total
    coords = [(s.trace_id, s.parent_id, s.name, s.seq) for s in finished]
    assert len(set(coords)) == len(coords)
    assert tracer._seq[(finished[0].trace_id, "", "contract")] == N_THREADS


def test_copacetic_engine_counts_every_event():
    engine = CopaceticEngine()
    error = SEVERITY_IDS["error"]

    def work(i):
        batch = EventBatch(
            timestamps=np.full(6, 100.0),
            component_ids=np.full(6, i),
            severities=np.full(6, error),
            message_ids=np.zeros(6),
        )
        assert len(engine.process(batch)) == 1
        assert engine.process(batch) == []  # same slot: deduplicated

    hammer(work)
    assert engine.events_processed == N_THREADS * 12
    assert sorted((a.rule, a.node) for a in engine.alerts) == [
        ("error-burst", i) for i in range(N_THREADS)
    ]


# -- tiered store: version counter and rollup registry ------------------------


def test_tiered_store_versions_and_rollups_match_a_serial_twin():
    def batch(i, n):
        return ColumnTable(
            {
                "timestamp": n * 100.0 + np.arange(20, dtype=float),
                "node": np.arange(20) % 4.0,
                "value": np.arange(20, dtype=float) + i,
            }
        )

    def drive(store, i):
        name = f"d{i}"
        store.register(name, DataClass.SILVER)
        store.add_rollup(
            RollupSpec(f"r{i}", name, ("node",), "value", bucket_s=None)
        )
        for n in range(5):
            store.ingest(name, batch(i, n), now=float(n))
        store.compact(name, min_objects=2)

    threaded, serial = TieredStore(), TieredStore()
    hammer(lambda i: drive(threaded, i))
    for i in range(N_THREADS):
        drive(serial, i)
    assert threaded.data_version() == serial.data_version() > 0
    # One stamp per put and delete, none lost between threads — the
    # live-part views derived meanwhile are judged current by it.
    assert threaded.ocean.stamp == serial.ocean.stamp > 0
    assert threaded.rollups() == serial.rollups()
    for i in range(N_THREADS):
        assert live_metas(threaded, f"d{i}") == fresh_live(threaded, f"d{i}")
        assert threaded.query_archive(f"d{i}") == serial.query_archive(f"d{i}")
        assert threaded.query_rollup(f"r{i}") == serial.query_rollup(f"r{i}")


# -- the toggles, from threads -----------------------------------------------


@pytest.mark.parametrize("decision", fast_path_probes.IDS)
def test_toggles_hold_while_any_thread_is_inside(monkeypatch, decision):
    took_reference = fast_path_probes.install(monkeypatch)[decision]

    def work(i):
        for _ in range(ROUNDS):
            with baseline_mode():
                assert baseline.active() and took_reference()
            with baseline_mode(), baseline_mode():
                assert baseline.active() and took_reference()

    hammer(work)
    assert not baseline.active()
    assert baseline._depth == 0
    assert not took_reference()
