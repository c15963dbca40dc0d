"""Inverted-index log search over event streams (the ElasticSearch role).

§V-B: "ElasticSearch and Apache Druid are used for real-time diagnostics
and debugging, targeting unstructured and time series data,
respectively."  The LAKE covers the Druid half; this store covers the
Elastic half: ingest rendered log events, tokenize, and answer
term/severity/node/time queries from an inverted index instead of
scanning — the capability the UA group's ticket workflow leans on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.telemetry.schema import SEVERITIES, SEVERITY_IDS, EventBatch

__all__ = ["LogDocument", "LogStore"]

_TOKEN = re.compile(r"[a-z0-9_]+")


def _tokenize(text: str) -> set[str]:
    return set(_TOKEN.findall(text.lower()))


@dataclass(frozen=True)
class LogDocument:
    """One indexed log line."""

    doc_id: int
    timestamp: float
    node: int
    severity: int
    message: str


class LogStore:
    """Append-only inverted-index store for log events.

    Parameters
    ----------
    templates:
        Message-template table used to render
        :class:`~repro.telemetry.schema.EventBatch` message ids.
    """

    def __init__(self, templates: list[str]) -> None:
        self.templates = list(templates)
        # Only the framework's window loop writes.
        self._docs: list[LogDocument] = []
        self._term_index: dict[str, list[int]] = {}
        self._node_index: dict[int, list[int]] = {}
        self.scanned_docs = 0  # docs touched by queries (bench hook)

    # -- ingest -----------------------------------------------------------------

    def ingest(self, batch: EventBatch) -> int:
        """Index a batch; returns documents added."""
        added = 0
        for i in range(len(batch)):
            doc_id = len(self._docs)
            message = self.templates[batch.message_ids[i]]
            doc = LogDocument(
                doc_id=doc_id,
                timestamp=float(batch.timestamps[i]),
                node=int(batch.component_ids[i]),
                severity=int(batch.severities[i]),
                message=message,
            )
            self._docs.append(doc)
            for term in _tokenize(message):
                self._term_index.setdefault(term, []).append(doc_id)
            self._node_index.setdefault(doc.node, []).append(doc_id)
            added += 1
        return added

    def __len__(self) -> int:
        return len(self._docs)

    # -- query -------------------------------------------------------------------

    def search(
        self,
        terms: str | list[str] = "",
        node: int | None = None,
        min_severity: str | None = None,
        t0: float | None = None,
        t1: float | None = None,
        limit: int = 100,
    ) -> list[LogDocument]:
        """Conjunctive search: all terms AND node AND severity AND time.

        Candidate sets come from the inverted index (terms/node); only
        candidates are scanned for the remaining filters.
        """
        if isinstance(terms, str):
            term_list = sorted(_tokenize(terms))
        else:
            term_list = sorted(
                t for item in terms for t in _tokenize(item)
            )

        candidate_ids: set[int] | None = None
        for term in term_list:
            postings = set(self._term_index.get(term, ()))
            candidate_ids = (
                postings if candidate_ids is None else candidate_ids & postings
            )
            if not candidate_ids:
                return []
        if node is not None:
            node_postings = set(self._node_index.get(node, ()))
            candidate_ids = (
                node_postings
                if candidate_ids is None
                else candidate_ids & node_postings
            )
            if not candidate_ids:
                return []
        if candidate_ids is None:
            candidate_ids = set(range(len(self._docs)))

        floor = SEVERITY_IDS[min_severity] if min_severity else 0
        out = []
        for doc_id in sorted(candidate_ids):
            doc = self._docs[doc_id]
            self.scanned_docs += 1
            if doc.severity < floor:
                continue
            if t0 is not None and doc.timestamp < t0:
                continue
            if t1 is not None and doc.timestamp >= t1:
                continue
            out.append(doc)
            if len(out) >= limit:
                break
        return out

    def count_by_severity(self) -> dict[str, int]:
        """Document counts per severity name."""
        counts = np.zeros(len(SEVERITIES), dtype=int)
        for doc in self._docs:
            counts[doc.severity] += 1
        return {name: int(counts[i]) for i, name in enumerate(SEVERITIES)}

    def top_terms(self, n: int = 10) -> list[tuple[str, int]]:
        """Most frequent index terms (diagnostic overview)."""
        ranked = sorted(
            self._term_index.items(), key=lambda kv: (-len(kv[1]), kv[0])
        )
        return [(term, len(postings)) for term, postings in ranked[:n]]
