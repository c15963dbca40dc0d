"""The read path's work ledger: what one seeded run makes the read plane do.

A seeded MINI deployment with the managed feature set (lifecycle ticks,
lineage, self-telemetry, three broker shards) ingests sixteen windows
(two ticks: one compacted part and four single-window parts per
dataset), then answers one panel-style round of archive, online and
rollup queries.  The work counters that are a pure function of (seed, shape)
— parts scanned, pruned and opened, row groups decoded, pruned and
found empty, runs of small parts scanned as one group, row-group
cache hits and misses, LAKE rows scanned, lineage
nodes and edges and the digest of the catalog's export, and on the write side the bytes hashed by part opens,
what compaction merged, rewrote and spliced, and the rows LAKE appends
and regrowths copied — are pinned in ``work_ledger.json``.

A change that only makes the read path cheaper passes this unchanged;
one that changes how much work a query does shows it in its diff of the
JSON file.
"""

import json
from pathlib import Path

import numpy as np

from repro.columnar import Col
from repro.core import DataPlaneOptions, ODAFramework
from repro.obs import METRICS
from repro.query import clear_row_group_cache
from repro.telemetry import MINI, synthetic_job_mix

LEDGER = Path(__file__).with_name("work_ledger.json")
WINDOW_S = 15.0
N_WINDOWS = 16
COUNTERS = (
    "query.parts_scanned",
    "ocean.parts_pruned",
    "query.parts_opened",
    "query.groups_decoded",
    "query.groups_pruned",
    "query.groups_empty",
    "query.cache_hits",
    "query.cache_misses",
    "query.runs_scanned",
    # The write side of the same run, and the hashing of part opens:
    # a change to the read path alone leaves these as they are.
    "query.bytes_hashed",
    "tier.compact.parts_merged",
    "tier.compact.rows_rewritten",
    "tier.compact.bytes_rewritten",
    "tier.compact.groups_spliced",
    "tier.compact.rows_spliced",
    "lake.rows_copied",
    "lake.rows_scanned",
)


def panel_round(tiers, rng):
    """One round of the dashboard's query classes, in a seeded order."""
    horizon = N_WINDOWS * WINDOW_S
    power = ["timestamp", "node", "input_power"]

    def narrow():
        t0 = float(rng.integers(0, N_WINDOWS - 1)) * WINDOW_S
        return tiers.query_archive("power.silver", t0, t0 + 2 * WINDOW_S)

    def node_history():
        node = int(rng.integers(0, MINI.n_nodes))
        return tiers.query_archive(
            "power.silver", predicate=Col("node").isin([node]), columns=power
        )

    def bronze_scan():
        threshold = float(rng.uniform(2500.0, 4000.0))
        return tiers.query_archive(
            "power.bronze", predicate=Col("value") > threshold
        )

    def zoom():
        # Between two Silver samples: groups pass their stats, no row
        # passes the mask.
        t0 = float(rng.integers(0, N_WINDOWS - 1)) * WINDOW_S + 1.0
        return tiers.query_archive("power.silver", t0, t0 + 5.0)

    def bronze_window():
        # Inside the compacted part's first row group.
        t0 = float(rng.integers(0, 10)) * WINDOW_S
        return tiers.query_archive(
            "power.bronze", t0, t0 + WINDOW_S, columns=["timestamp", "value"]
        )

    def job_profile():
        job = int(rng.integers(1, 3))
        return tiers.query_archive(
            "power.gold_profiles", predicate=Col("job_id") == job
        )

    def recent():
        t0 = float(N_WINDOWS - rng.integers(1, 4)) * WINDOW_S
        return tiers.query_archive("power.silver", t0, t0 + WINDOW_S)

    def online():
        t0 = float(rng.integers(0, N_WINDOWS - 4)) * WINDOW_S
        return tiers.query_online(
            "power.silver", t0, t0 + 4 * WINDOW_S, columns=power
        )

    def rollup():
        return tiers.query_rollup("power.silver.node_power")

    def io_history():
        t0 = float(rng.integers(0, 2)) * horizon / 2
        return tiers.query_archive("storage_io.silver", t0, t0 + horizon / 2)

    queries = [narrow] * 3 + [zoom] * 2 + [node_history] * 2 + [bronze_scan]
    queries += [bronze_window] * 2 + [job_profile] * 2
    queries += [recent] * 3 + [online] * 3 + [rollup, io_history]
    return [queries[i]() for i in rng.permutation(len(queries))]


def take_ledger() -> dict:
    clear_row_group_cache()
    before = {name: METRICS.counter(name) for name in COUNTERS}
    rng = np.random.default_rng(7)
    allocation = synthetic_job_mix(MINI, 0.0, N_WINDOWS * WINDOW_S, rng)
    options = DataPlaneOptions(
        lifecycle=True,
        lifecycle_every_s=6 * WINDOW_S,
        lineage=True,
        self_telemetry=True,
        shards=3,
    )
    fw = ODAFramework(MINI, allocation, seed=7, options=options)
    try:
        fw.run(0.0, N_WINDOWS * WINDOW_S, WINDOW_S)
        answers = panel_round(fw.tiers, np.random.default_rng([7, 1]))
    finally:
        fw.close()
        clear_row_group_cache()
    ledger = {
        name: int(METRICS.counter(name) - before[name]) for name in COUNTERS
    }
    ledger["query.rows_returned"] = sum(t.num_rows for t in answers)
    ledger["lineage.nodes"] = len(fw.lineage)
    ledger["lineage.edges"] = len(fw.lineage.edges())
    # The catalog itself, not only its size: which nodes, attributes,
    # spans and edges the run recorded.
    ledger["lineage.export_digest"] = fw.lineage.export_digest()
    return ledger


def test_seeded_run_does_the_pinned_read_work():
    want = json.loads(LEDGER.read_text(encoding="utf-8"))
    assert take_ledger() == want
