"""The acceptance proof: blast radius == brute-force replay diff.

A seeded ``CORRUPT_PART`` fault silently rewrites one OCEAN part's
values at the put site.  The lineage catalog must then *name* exactly
the artifacts and dashboard answers the fault could have touched — no
more (queries whose manifests pruned the part stay clean), no less
(rollup partials backfilled from the corrupted blob are implicated).
Brute force is the ground truth: a fault-free replay of the same seed,
diffed answer by answer.

And the whole account must be deterministic: the same seed and fault
plan produce byte-identical catalog exports and blast reports across
repeated runs and across serial / pipelined / sharded(3) deployments.
"""

import json

import numpy as np
import pytest

from repro.columnar import ColumnTable
from repro.core import DataPlaneOptions, ODAFramework
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.lineage import LineageCatalog, blast_radius
from repro.obs import reset_all
from repro.serve import Request, ServingGateway, payload_digest
from repro.storage import DataClass, RollupSpec, TieredStore
from repro.telemetry import MINI, synthetic_job_mix

#: OCEAN put order within a window is fixed by the phase-2 commit loop:
#: power.silver, power.bronze, power.gold_profiles, storage_io.silver,
#: interconnect.silver, facility.silver.  Call 2 is therefore window
#: 0's power.bronze part.
BRONZE_W0_PUT = 2
BRONZE_W0_KEY = "power.bronze/part-00000000.rcf"

CORRUPT_PLAN = [
    FaultSpec("tier.put", FaultKind.CORRUPT_PART, at_call=BRONZE_W0_PUT)
]

#: The dashboard battery: one answer that must read the corrupted part,
#: one whose manifests prune it, one on an untouched dataset.
BATTERY = [
    ("t0", "bronze_window", {"t0": 0.0, "t1": 30.0}),   # reads the part
    ("t0", "bronze_window", {"t0": 30.0, "t1": 60.0}),  # pruned away
    ("t1", "silver_window", {"t0": 0.0, "t1": 60.0}),   # other dataset
]


def run_deployment(options, corrupt=False):
    reset_all()
    allocation = synthetic_job_mix(MINI, 0.0, 600.0, np.random.default_rng(11))
    fw = ODAFramework(MINI, allocation, seed=5, options=options)
    injector = None
    if corrupt:
        injector = FaultInjector(FaultPlan(list(CORRUPT_PLAN)))
        fw.tiers.ocean = FaultyObjectStore(fw.tiers.ocean, injector)
    fw.run(0.0, 60.0, 30.0)
    endpoints = {
        "bronze_window": lambda t0, t1: fw.tiers.query_archive(
            "power.bronze", t0, t1
        ),
        "silver_window": lambda t0, t1: fw.tiers.query_archive(
            "power.silver", t0, t1
        ),
    }
    digests = {}
    with ServingGateway(fw.tiers, endpoints) as gw:
        requests = [
            Request.make(tenant, endpoint, **kwargs)
            for tenant, endpoint, kwargs in BATTERY
        ]
        for i, env in enumerate(gw.submit_many(requests)):
            assert env.status == "ok", env.error
            digests[i] = env.digest
    # Map each battery entry (by index) to its envelope node via the
    # request fingerprint, which is part of the node's coordinates.
    by_coords = {
        tuple(n["coords"][:3]): n["id"]
        for n in fw.lineage.nodes("envelope")
    }
    envelope_of = {
        i: by_coords[(tenant, endpoint, Request.make(tenant, endpoint, **kwargs).fingerprint())]
        for i, (tenant, endpoint, kwargs) in enumerate(BATTERY)
    }
    return fw, injector, digests, envelope_of


SERIAL = dict(lineage=True)


class TestBlastEqualsReplayDiff:
    @pytest.fixture(scope="class")
    def runs(self):
        bad = run_deployment(DataPlaneOptions(**SERIAL), corrupt=True)
        good = run_deployment(DataPlaneOptions(**SERIAL), corrupt=False)
        return bad, good

    def test_exactly_one_part_corrupted(self, runs):
        (_, injector, _, _), _ = runs
        assert injector.corrupted == [
            ("tier.put", BRONZE_W0_PUT, BRONZE_W0_KEY)
        ]

    def test_report_names_exactly_the_changed_answers(self, runs):
        (fw, injector, bad_digests, envelope_of), (_, _, good_digests, _) = runs
        report = blast_radius(fw.lineage, injector=injector)
        assert report["clean"] is False
        assert report["corrupted_parts"] == [BRONZE_W0_KEY]

        # Ground truth: which dashboard answers actually changed?
        truly_changed = {
            i
            for i in range(len(BATTERY))
            if bad_digests[i] != good_digests[i]
        }
        assert truly_changed == {0}  # sanity: fault had teeth

        flagged_envelopes = {
            n["id"] for n in report["affected"]["envelope"]
        }
        # The report names exactly the answers the replay diff found
        # changed — no phantom flags, no misses.
        assert flagged_envelopes == {envelope_of[i] for i in truly_changed}

    def test_clean_datasets_stay_out_of_the_radius(self, runs):
        (fw, injector, _, _), _ = runs
        report = blast_radius(fw.lineage, injector=injector)
        affected_parts = {n["coords"][1] for n in report["affected"]["part"]}
        assert affected_parts == {BRONZE_W0_KEY}
        for node in report["affected"]["query_result"]:
            assert node["coords"][1] == "power.bronze"


class TestDeterminism:
    def account(self, options):
        fw, injector, _, _ = run_deployment(options, corrupt=True)
        report = blast_radius(fw.lineage, injector=injector)
        return fw.lineage.export_json(), json.dumps(report, sort_keys=True)

    def test_same_seed_runs_are_byte_identical(self):
        assert self.account(DataPlaneOptions(**SERIAL)) == self.account(
            DataPlaneOptions(**SERIAL)
        )

    @pytest.mark.parametrize(
        "variant",
        [dict(lineage=True, shards=3)],
        ids=["sharded3"],
    )
    def test_executors_are_byte_identical(self, variant):
        assert self.account(DataPlaneOptions(**SERIAL)) == self.account(
            DataPlaneOptions(**variant)
        )


class TestRollupPartialsInTheRadius:
    """Store-level: a corrupted part implicates the partials and rollup
    answers backfilled from it, verified against a clean twin."""

    N_PARTS = 4
    CORRUPT_AT = 2  # part-00000001

    def batch(self, t_start, n=60):
        rng = np.random.default_rng(int(t_start) + 1)
        return ColumnTable(
            {
                "timestamp": t_start + np.arange(n, dtype=float),
                "node": rng.integers(0, 5, n),
                "input_power": rng.integers(50, 150, n).astype(float),
            }
        )

    def build(self, corrupt):
        ts = TieredStore(lineage=LineageCatalog())
        ts.register("d", DataClass.SILVER)
        injector = None
        if corrupt:
            injector = FaultInjector(
                FaultPlan(
                    [
                        FaultSpec(
                            "tier.put",
                            FaultKind.CORRUPT_PART,
                            at_call=self.CORRUPT_AT,
                        )
                    ]
                )
            )
            ts.ocean = FaultyObjectStore(ts.ocean, injector)
        for i in range(self.N_PARTS):
            ts.ingest("d", self.batch(i * 100.0), now=float(i))
        ts.add_rollup(
            RollupSpec(
                name="d.node_power", source="d", keys=("node",),
                value="input_power",
            )
        )
        agg = ts.query_rollup("d.node_power")
        return ts, injector, agg

    def test_partials_and_rollup_answer_implicated(self):
        ts, injector, bad_agg = self.build(corrupt=True)
        _, _, good_agg = self.build(corrupt=False)
        assert payload_digest(bad_agg) != payload_digest(good_agg)

        corrupted_key = injector.corrupted[0][2]
        report = blast_radius(ts.lineage, injector=injector)
        partial_keys = {
            n["coords"][1] for n in report["affected"]["rollup_partial"]
        }
        # Exactly the corrupted part's partial, not its siblings.
        assert partial_keys == {corrupted_key}
        # The merged rollup answer read every live partial, so it is in
        # the radius too.
        assert [
            n["coords"][0] for n in report["affected"]["query_result"]
        ] == ["rollup"]
