"""Typed request/result envelopes and content fingerprints.

The gateway's determinism contract lives here: a :class:`Request` is a
value (tenant, endpoint, canonically ordered params) whose
:meth:`~Request.fingerprint` is stable across processes, and a
:class:`ResultEnvelope` carries only deterministic fields — status,
payload, generation, payload digest — so a gateway answer can be
compared byte-for-byte against a direct library call regardless of
which thread produced it or whether the cache served it.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = ["Request", "ResultEnvelope", "payload_digest"]


def _canon_params(params: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    for key, value in params.items():
        if not isinstance(value, (str, int, float, bool, tuple, type(None))):
            raise ValueError(
                f"request param {key!r} must be a scalar or tuple, "
                f"got {type(value).__name__}"
            )
    return tuple(sorted(params.items()))


@dataclass(frozen=True)
class Request:
    """One serving request: who asks what with which arguments.

    ``params`` is stored as a sorted tuple of (name, value) pairs so
    requests are hashable values and two call-sites passing the same
    kwargs in different order produce the same fingerprint.
    """

    tenant: str
    endpoint: str
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, tenant: str, endpoint: str, **params: Any) -> "Request":
        """Build a request from kwargs (canonically ordered)."""
        return cls(tenant, endpoint, _canon_params(params))

    def kwargs(self) -> dict[str, Any]:
        """The params as a kwargs dict for the endpoint callable."""
        return dict(self.params)

    def fingerprint(self) -> str:
        """Content fingerprint of (endpoint, params) — NOT the tenant.

        Tenancy is an admission concern, not a result concern: two
        tenants asking the same question share one cache entry.
        """
        h = hashlib.blake2b(digest_size=16)
        h.update(self.endpoint.encode("utf-8"))
        for key, value in self.params:
            h.update(b"\x00")
            h.update(key.encode("utf-8"))
            h.update(b"=")
            h.update(f"{type(value).__name__}:{value!r}".encode("utf-8"))
        return h.hexdigest()


@dataclass(frozen=True)
class ResultEnvelope:
    """What the gateway returns for one request.

    ``status`` is ``"ok"`` (freshly computed), ``"cached"`` (served from
    the result cache — payload and digest are the cached computation's),
    ``"rejected"`` (admission shed it; ``error`` holds the reason) or
    ``"error"`` (the endpoint raised; ``error`` holds the rendered
    exception).  All fields are deterministic functions of the request,
    the store generation and the endpoint — wall time never appears
    here (the gateway tracks service latency out-of-band).
    """

    request: Request
    status: str
    payload: Any = None
    error: str | None = None
    generation: int = -1
    digest: str | None = None

    @property
    def ok(self) -> bool:
        """True when a payload is present (fresh or cached)."""
        return self.status in ("ok", "cached")


@functools.lru_cache(maxsize=64)
def _dtype_tag(dtype: np.dtype) -> bytes:
    """``str(dtype)`` as bytes, the tag every array header starts with.

    ``str(dtype)`` is a Python-level method costing about as much as
    hashing a small column, and payloads reuse a handful of dtypes (the
    bound only caps what exotic payloads could pin).
    """
    return str(dtype).encode()


def _digest_array(h, arr: np.ndarray, prefix: bytes = b"") -> None:
    """Feed ``prefix``, the dtype/shape header and the values of ``arr``.

    The stream is ``prefix + str(dtype) + str(shape) + values`` where
    the values are ``tobytes()`` (C order) for a fixed-width dtype and
    ``repr(tolist())`` for an object array (``tobytes()`` there would
    hash pointers; this is the canonicalization
    ``assert_tables_equal`` uses).  The header goes in as one update;
    a C-contiguous array's buffer is hashed in place, anything else is
    copied to C order first, so both give the bytes ``tobytes()`` would.
    """
    h.update(prefix + _dtype_tag(arr.dtype) + str(arr.shape).encode())
    if arr.dtype.kind == "O":
        h.update(repr(arr.tolist()).encode())
    elif arr.flags.c_contiguous:
        h.update(arr)
    else:
        h.update(arr.tobytes())


def payload_digest(payload: Any) -> str:
    """Stable content digest of an endpoint payload.

    Handles the closed vocabulary endpoints return: ``None``, scalars,
    strings, tuples/lists, dicts (sorted by key), numpy arrays, and
    duck-typed column tables (anything with ``column_names`` and
    ``__getitem__``).  Two payloads digest equal iff a byte-level
    comparison of their canonical forms would — the equivalence tests'
    working definition of "identical result".
    """
    h = hashlib.blake2b(digest_size=16)
    _digest_into(h, payload)
    return h.hexdigest()


def _digest_into(h, obj: Any) -> None:
    if obj is None:
        h.update(b"N")
    elif isinstance(obj, bool):
        h.update(b"B1" if obj else b"B0")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I" + repr(int(obj)).encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode())
    elif isinstance(obj, str):
        h.update(b"S" + obj.encode("utf-8"))
    elif isinstance(obj, np.ndarray):
        _digest_array(h, obj, b"A")
    elif isinstance(obj, (tuple, list)):
        h.update(f"T{len(obj)}".encode())
        for item in obj:
            h.update(b"\x00")
            _digest_into(h, item)
    elif isinstance(obj, dict):
        h.update(f"D{len(obj)}".encode())
        for key in sorted(obj):
            h.update(b"\x00" + str(key).encode("utf-8") + b"\x01")
            _digest_into(h, obj[key])
    elif hasattr(obj, "column_names") and hasattr(obj, "__getitem__"):
        names = list(obj.column_names)
        h.update(f"C{len(names)}".encode())
        for name in names:  # column order is part of the identity
            _digest_array(
                h,
                np.asarray(obj[name]),
                b"\x00" + name.encode("utf-8") + b"\x01",
            )
    else:
        raise ValueError(
            f"cannot digest payload of type {type(obj).__name__}; "
            "endpoints must return tables, arrays, scalars or containers "
            "of those"
        )
