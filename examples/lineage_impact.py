#!/usr/bin/env python
"""Provenance end to end: corrupt one part, name what it touched.

Runs a seeded deployment with the lineage catalog on and a
``CORRUPT_PART`` fault planted at one OCEAN put, serves a small
dashboard battery through the gateway, then:

* prints the blast-radius report — every part, rollup partial, query
  answer and serve envelope the corrupted part could have reached,
* dumps the catalog to ``lineage_catalog.json`` for the offline CLI
  (``python -m repro.lineage report lineage_catalog.json``).

The same seed always produces the same catalog bytes and the same
report — sharded or not (DESIGN.md §17).

Run:  python examples/lineage_impact.py
"""

import numpy as np

from repro.core import DataPlaneOptions, ODAFramework
from repro.faults.injector import FaultInjector, FaultyObjectStore
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.lineage import blast_radius
from repro.obs import reset_all
from repro.serve import Request, ServingGateway
from repro.telemetry import MINI, synthetic_job_mix

CATALOG_PATH = "lineage_catalog.json"


def main() -> None:
    print("=== lineage: from an injected fault to its blast radius ===\n")

    reset_all()
    allocation = synthetic_job_mix(
        MINI, 0.0, 600.0, np.random.default_rng(seed=11)
    )
    options = DataPlaneOptions(lineage=True)
    fw = ODAFramework(MINI, allocation, seed=5, options=options)

    # Plant a silent corruption at the second OCEAN put — window 0's
    # power.bronze part, per the fixed phase-2 commit order.
    injector = FaultInjector(
        FaultPlan([FaultSpec("tier.put", FaultKind.CORRUPT_PART, at_call=2)])
    )
    fw.tiers.ocean = FaultyObjectStore(fw.tiers.ocean, injector)

    with fw:
        fw.run(0.0, 60.0, window_s=30.0)

        endpoints = {
            "bronze_window": lambda t0, t1: fw.tiers.query_archive(
                "power.bronze", t0, t1
            ),
            "silver_window": lambda t0, t1: fw.tiers.query_archive(
                "power.silver", t0, t1
            ),
        }
        with ServingGateway(fw.tiers, endpoints) as gw:
            envelopes = gw.submit_many(
                [
                    Request.make("t0", "bronze_window", t0=0.0, t1=30.0),
                    Request.make("t0", "bronze_window", t0=30.0, t1=60.0),
                    Request.make("t1", "silver_window", t0=0.0, t1=60.0),
                ]
            )
        print(f"served {len(envelopes)} dashboard answers "
              f"({sum(e.status == 'ok' for e in envelopes)} ok)")

    print(f"corrupted: {[key for _, _, key in injector.corrupted]}\n")

    report = blast_radius(fw.lineage, injector=injector)
    for kind, nodes in report["affected"].items():
        print(f"  affected {kind:<16} {len(nodes)}")
        for node in nodes:
            print(f"    {':'.join(node['coords'])}")

    fw.lineage.write_json(CATALOG_PATH)
    print(f"\ncatalog ({len(fw.lineage)} nodes) -> {CATALOG_PATH}")
    print(f"export digest: {fw.lineage.export_digest()}")
    print(f"explore: python -m repro.lineage report {CATALOG_PATH}")


if __name__ == "__main__":
    main()
