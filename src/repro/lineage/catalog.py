"""The typed entity/relation catalog behind provenance queries.

Every artifact the data plane mints — a topic window landing on the
broker, a refined Silver/Gold batch, an OCEAN part (including the
``replaces`` tombstone chain a compaction leaves), a rollup partial, a
query answer, a serve envelope — is a :class:`LineageCatalog` node,
recorded **write-through at the producing site** (the producer loop, the
tier ingest/compaction commit points, the query executor, the serving
gateway), never scraped from the span buffer after the fact.  Spans are
bounded and droppable; the catalog is the durable record, and each node
carries the ``span_id`` active when it was minted so traces and lineage
cross-reference both ways.

Consistency with the store is inherited from the PR-8 rewrite-commit
protocol rather than re-implemented: part nodes are recorded only
*after* the commit put returns (fault injection fires before the store
mutates, so a ``SimulatedCrash`` at ``tier.put`` means neither the part
nor its node exists), supersede edges ride the same single-put commit
point, and retirement is marked only after the delete lands.  At every
crash point the catalog's live set therefore equals the store's
present-minus-tombstoned set — the invariant
``tests/lineage/test_crash_consistency.py`` enumerates.

Identity is deterministic (:mod:`repro.lineage.ids`): node IDs are pure
functions of logical coordinates, edges live in a set, and
:meth:`LineageCatalog.export` canonicalizes by sorting — so runs of
the same seed export byte-identical catalogs across shard counts and
whatever order the producing sites recorded in.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable

from repro.lineage.ids import node_id

__all__ = ["LineageCatalog", "LineageFormatError", "EDGE_KINDS", "FLOW_EDGE_KINDS"]

#: Edge vocabulary.  ``derived`` is produced-by/derived-from (data
#: flowed from src into dst), ``read`` is a consumption by a query or
#: envelope, ``supersedes`` is the compaction tombstone chain (dst is
#: the dead part src replaced).
EDGE_KINDS = frozenset({"derived", "read", "supersedes"})

#: The kinds closure queries traverse.  ``supersedes`` is bookkeeping
#: about *liveness*, not data flow — a rewrite's data flow is its own
#: ``derived`` edges — so impact queries skip it.
FLOW_EDGE_KINDS = frozenset({"derived", "read"})

#: A node's fields as :meth:`LineageCatalog.record` writes them, with
#: the JSON type each must have in a dump.
_NODE_FIELDS = {
    "id": str,
    "kind": str,
    "coords": list,
    "attrs": dict,
    "span": str,
    "retired": bool,
    "advisories": list,
}


class LineageFormatError(ValueError):
    """A catalog dump that :meth:`LineageCatalog.export` could not have
    written: torn or not JSON, not an object, or a node or an edge of
    the wrong shape."""


def _check_node(node: object) -> None:
    if not isinstance(node, dict):
        raise LineageFormatError(f"lineage node is not an object: {node!r}")
    for field, kind in _NODE_FIELDS.items():
        if not isinstance(node.get(field), kind):
            raise LineageFormatError(
                f"lineage node {node.get('id')!r}: {field!r} is not a "
                f"{kind.__name__}"
            )
    if not all(isinstance(c, str) for c in node["coords"]):
        raise LineageFormatError(f"lineage node {node['id']!r}: 'coords' not strings")
    if not all(isinstance(a, dict) for a in node["advisories"]):
        raise LineageFormatError(
            f"lineage node {node['id']!r}: 'advisories' not objects"
        )


def _check_edge(edge: object) -> None:
    if not (
        isinstance(edge, list)
        and len(edge) == 3
        and all(isinstance(x, str) for x in edge)
        and edge[2] in EDGE_KINDS
    ):
        raise LineageFormatError(
            f"lineage edge is not [src, dst, kind] with kind in "
            f"{sorted(EDGE_KINDS)}: {edge!r}"
        )


def _span_id() -> str:
    from repro.obs import TRACER

    span = TRACER.current()
    return span.span_id if span is not None else ""


class LineageCatalog:
    """Typed provenance graph over the data plane's artifacts.

    All mutation goes through one lock (the window loop and a caller's
    serving threads may record concurrently), and node recording is
    idempotent (same coordinates merge into one node), so whichever
    site gets there first wins without changing the export.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: id -> node dict (kind, coords, attrs, span, retired, advisories).
        self._nodes: dict[str, dict] = {}
        #: (src, dst, kind) triples.
        self._edges: set[tuple[str, str, str]] = set()
        #: dst -> incoming, src -> outgoing adjacency (flow edges only).
        self._out: dict[str, set[str]] = {}
        self._in: dict[str, set[str]] = {}
        #: parts that lost a supersedes race (dst of a supersedes edge).
        self._superseded: set[str] = set()

    # -- recording ----------------------------------------------------------

    def record(
        self,
        kind: str,
        coords: tuple,
        attrs: dict | None = None,
        span: str | None = None,
    ) -> str:
        """Record (or merge into) the node at ``coords``; returns its ID.

        The first recording wins the ``span`` field (the producing
        site's span); later recordings only merge missing attrs, so
        re-deriving a node — an idempotent repeated query, a restart's
        reconcile pass — never flaps the export.
        """
        nid = node_id(kind, *coords)
        if span is None:
            span = _span_id()
        with self._lock:
            node = self._nodes.get(nid)
            if node is None:
                self._nodes[nid] = {
                    "id": nid,
                    "kind": kind,
                    "coords": [str(c) if not isinstance(c, float) else repr(c) for c in coords],
                    "attrs": dict(attrs or {}),
                    "span": span,
                    "retired": False,
                    "advisories": [],
                }
            else:
                for k, v in (attrs or {}).items():
                    node["attrs"].setdefault(k, v)
        return nid

    def link(self, src: str, dst: str, kind: str = "derived") -> None:
        """Add one edge (idempotent)."""
        if kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {kind!r}")
        with self._lock:
            self._add_edges_locked((src,), dst, kind)

    def link_many(
        self, srcs: Iterable[str], dst: str, kind: str = "derived"
    ) -> None:
        """Edges from every ``src`` to one ``dst`` (idempotent), added
        under one acquisition of the lock."""
        if kind not in EDGE_KINDS:
            raise ValueError(f"unknown edge kind {kind!r}")
        with self._lock:
            self._add_edges_locked(srcs, dst, kind)

    def _add_edges_locked(self, srcs: Iterable[str], dst: str, kind: str) -> None:
        for src in srcs:
            self._edges.add((src, dst, kind))
            if kind in FLOW_EDGE_KINDS:
                self._out.setdefault(src, set()).add(dst)
                self._in.setdefault(dst, set()).add(src)
            elif kind == "supersedes":
                self._superseded.add(dst)

    def supersede(self, new: str, old_ids: Iterable[str]) -> None:
        """Record a rewrite commit: ``new`` tombstones every ``old``.

        Adds both halves of the rewrite's meaning — the liveness
        tombstone (``supersedes``) and the data flow (each input
        ``derived`` into the combined part, so blast radius crosses
        compactions).  Superseded parts stay in the catalog as
        historical nodes; only live-set queries exclude them.
        """
        for old in old_ids:
            self.link(new, old, "supersedes")
            self.link(old, new, "derived")

    def retire(self, nid: str) -> None:
        """Mark a node's artifact as removed from its store (retention
        delete, partial drop).  The node itself stays — history is the
        point of the catalog."""
        with self._lock:
            node = self._nodes.get(nid)
            if node is not None:
                node["retired"] = True

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._nodes)

    def node(self, nid: str) -> dict | None:
        """A copy of one node, or None."""
        with self._lock:
            node = self._nodes.get(nid)
            return None if node is None else json.loads(json.dumps(node))

    def nodes(self, kind: str | None = None) -> list[dict]:
        """Copies of all nodes (optionally one kind), sorted by ID."""
        with self._lock:
            picked = [
                n
                for n in self._nodes.values()
                if kind is None or n["kind"] == kind
            ]
            return sorted(
                (json.loads(json.dumps(n)) for n in picked),
                key=lambda n: n["id"],
            )

    def edges(self) -> list[tuple[str, str, str]]:
        """All edges, sorted."""
        with self._lock:
            return sorted(self._edges)

    def _closure(self, start: str, adjacency: dict[str, set[str]]) -> set[str]:
        seen: set[str] = set()
        stack = [start]
        while stack:
            nid = stack.pop()
            for nxt in adjacency.get(nid, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        seen.discard(start)
        return seen

    def downstream(self, nid: str) -> list[str]:
        """Every node reachable from ``nid`` over flow edges, sorted —
        "which artifacts did this one feed?"."""
        with self._lock:
            return sorted(self._closure(nid, self._out))

    def upstream(self, nid: str) -> list[str]:
        """Every node ``nid`` is reachable from, sorted — "what fed
        this artifact?"."""
        with self._lock:
            return sorted(self._closure(nid, self._in))

    def live_parts(self, dataset: str | None = None) -> list[str]:
        """Part *keys* currently live per the catalog: recorded, not
        superseded by a committed rewrite, not retired by retention.
        Mirrors the tier store's live set
        (:attr:`repro.storage.parts.Listing.live`) by construction."""
        with self._lock:
            out = []
            for nid, node in self._nodes.items():
                if node["kind"] != "part" or node["retired"]:
                    continue
                if nid in self._superseded:
                    continue
                if dataset is not None and node["attrs"].get("dataset") != dataset:
                    continue
                out.append(node["attrs"].get("key", nid))
            return sorted(out)

    def part_node(self, bucket: str, key: str) -> str:
        """The node ID an OCEAN part records under (whether or not it
        has been recorded)."""
        return node_id("part", bucket, key)

    def partial_node(self, rollup: str, key: str) -> str:
        """The node ID a rollup partial records under."""
        return node_id("rollup_partial", rollup, key)

    # -- advisories (DataRUC) ----------------------------------------------

    def attach_advisory(self, nid: str, advisory: dict) -> None:
        """Attach one governance advisory to a node.

        ``advisory`` is a JSON-able dict (role, verdict, request id,
        comment — see :meth:`repro.governance.dataruc.DataRUC.
        annotate_lineage`).  Advisories propagate *downstream* at query
        time: anything derived from a reviewed artifact inherits its
        advisories, which is the paper's §IX intent — a restriction on a
        dataset restricts everything computed from it.
        """
        with self._lock:
            node = self._nodes.get(nid)
            if node is None:
                raise KeyError(f"unknown lineage node {nid!r}")
            if advisory not in node["advisories"]:
                node["advisories"].append(advisory)

    def advisories(self, nid: str, inherited: bool = True) -> list[dict]:
        """Advisories on ``nid`` — direct plus (by default) every
        advisory attached anywhere in its upstream closure."""
        with self._lock:
            node = self._nodes.get(nid)
            if node is None:
                raise KeyError(f"unknown lineage node {nid!r}")
            found = [(nid, a) for a in node["advisories"]]
            if inherited:
                for up in sorted(self._closure(nid, self._in)):
                    up_node = self._nodes.get(up)
                    if up_node is not None:
                        found.extend((up, a) for a in up_node["advisories"])
            # Canonical JSON orders any two JSON-able advisories, whatever
            # the types of their values.
            return [
                dict(a, source=src)
                for src, a in sorted(
                    found,
                    key=lambda pair: (pair[0], json.dumps(pair[1], sort_keys=True)),
                )
            ]

    # -- export -------------------------------------------------------------

    def export(self) -> dict:
        """Canonical JSON-able form: nodes sorted by ID, edges sorted.

        Two same-seed runs — baseline or fast path, any shard count —
        export byte-identical dicts; the equivalence tests compare
        :meth:`export_digest` across them.
        """
        with self._lock:
            nodes = sorted(
                (json.loads(json.dumps(n)) for n in self._nodes.values()),
                key=lambda n: n["id"],
            )
            edges = [list(e) for e in sorted(self._edges)]
        return {"nodes": nodes, "edges": edges}

    def export_json(self) -> str:
        """The export as canonical JSON text."""
        return json.dumps(self.export(), sort_keys=True, separators=(",", ":"))

    def export_digest(self) -> str:
        """BLAKE2b digest of the canonical export (byte-identity checks)."""
        import hashlib

        return hashlib.blake2b(
            self.export_json().encode("utf-8"), digest_size=8
        ).hexdigest()

    def write_json(self, path) -> None:
        """Dump the canonical export to ``path`` (CLI input format)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.export_json())

    @classmethod
    def load(cls, exported: dict) -> "LineageCatalog":
        """Rebuild a catalog from :meth:`export` output (the CLI's
        entry point for offline impact queries).

        Raises :class:`LineageFormatError` for anything ``export`` does
        not write: a non-object, ``nodes`` or ``edges`` not a list, a
        node missing a field or holding one of the wrong type, two
        nodes with one ID, or an edge that is not ``[src, dst, kind]``
        of strings with ``kind`` in :data:`EDGE_KINDS`.
        """
        if not isinstance(exported, dict):
            raise LineageFormatError(
                f"lineage export is not an object: {type(exported).__name__}"
            )
        nodes, edges = exported.get("nodes", []), exported.get("edges", [])
        if not isinstance(nodes, list) or not isinstance(edges, list):
            raise LineageFormatError("lineage export's nodes and edges must be lists")
        cat = cls()
        with cat._lock:
            for node in nodes:
                _check_node(node)
                if node["id"] in cat._nodes:
                    raise LineageFormatError(f"lineage node {node['id']!r} twice")
                cat._nodes[node["id"]] = json.loads(json.dumps(node))
            for edge in edges:
                _check_edge(edge)
                src, dst, kind = edge
                cat._add_edges_locked((src,), dst, kind)
        return cat

    @classmethod
    def read_json(cls, path) -> "LineageCatalog":
        """Load a catalog dumped by :meth:`write_json`; a file that is
        not one (torn, not JSON, not UTF-8) raises
        :class:`LineageFormatError`."""
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            exported = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise LineageFormatError(f"{path}: not a lineage dump: {exc}") from exc
        return cls.load(exported)
