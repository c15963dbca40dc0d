"""Serving plane: a multi-tenant gateway in front of the analytics apps.

The paper's consumers — UA dashboards, RATS reports, LVA panels — are
read by *many* concurrent clients in production, not called as a
library by one.  This package models that layer: typed request/result
envelopes (:mod:`repro.serve.envelope`), per-tenant admission control
with token-bucket quotas and bounded queues (:mod:`repro.serve.admission`),
a result cache keyed on ``(query fingerprint, store generation)`` whose
invalidation rides the tier lifecycle (:mod:`repro.serve.cache`), the
gateway itself (:mod:`repro.serve.gateway`), the
canonical app endpoint adapters (:mod:`repro.serve.endpoints`), and a
seeded zipf multi-tenant load generator (:mod:`repro.serve.loadgen`).

The plane's invariant: every gateway-served answer is byte-identical
to the direct library call, cache hits included — enforced by
``tests/integration/test_serving_equivalence.py``.
"""

from repro.serve.admission import AdmissionController, TenantPolicy, TokenBucket
from repro.serve.cache import ResultCache
from repro.serve.endpoints import build_endpoints
from repro.serve.envelope import Request, ResultEnvelope, payload_digest
from repro.serve.errors import AdmissionRejected
from repro.serve.gateway import ServingGateway
from repro.serve.loadgen import (
    EndpointMix,
    LoadProfile,
    generate_load,
    replay_digest,
)

__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "EndpointMix",
    "LoadProfile",
    "Request",
    "ResultCache",
    "ResultEnvelope",
    "ServingGateway",
    "TenantPolicy",
    "TokenBucket",
    "build_endpoints",
    "generate_load",
    "payload_digest",
    "replay_digest",
]
