"""Provenance: the typed lineage catalog over the data plane.

PR-5's spans answer "what happened, in what order" but die with the
bounded span buffer; governance (DataRUC, §IX) and the chaos harness
both need the durable question — "what did this artifact come from, and
what did it feed?".  This package is that record:

* :class:`LineageCatalog` — every artifact (topic window, refined
  batch, OCEAN part and its ``replaces`` tombstone chain, rollup
  partial, query result, serve envelope) as a node with a deterministic
  BLAKE2b identity, linked by ``derived``/``read``/``supersedes`` edges
  recorded write-through at the producing sites.
* :mod:`repro.lineage.ids` — node identity from logical coordinates,
  never the clock.
* :func:`blast_radius` — after a chaos run with ``CORRUPT_PART``
  faults, exactly the artifacts and dashboard answers the corruption
  could have touched.
* ``python -m repro.lineage`` — offline impact queries over a catalog
  dump (``impact``/``report`` subcommands).

Import discipline: like :mod:`repro.obs`, this is a cross-cutting spine
— every layer may record into it; it imports nothing of the data plane
(the store-side reconcile pass lives in :mod:`repro.storage.tiers`,
which owns the manifest knowledge).
"""

from repro.lineage.blast import blast_radius
from repro.lineage.catalog import (
    EDGE_KINDS,
    FLOW_EDGE_KINDS,
    LineageCatalog,
    LineageFormatError,
)
from repro.lineage.ids import (
    batch_id,
    envelope_id,
    node_id,
    part_id,
    query_result_id,
    rollup_partial_id,
    topic_window_id,
)

__all__ = [
    "LineageCatalog",
    "LineageFormatError",
    "EDGE_KINDS",
    "FLOW_EDGE_KINDS",
    "blast_radius",
    "node_id",
    "topic_window_id",
    "batch_id",
    "part_id",
    "rollup_partial_id",
    "query_result_id",
    "envelope_id",
]
