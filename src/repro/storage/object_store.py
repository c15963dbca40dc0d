"""OCEAN: an S3/MinIO-style object store.

Buckets of immutable byte objects with metadata, prefix listing, and
access accounting.  The ODA framework appends compressed columnar (RCF)
objects here; nothing in the store knows about tables — that separation
(dumb bytes below, smart format above) mirrors the MinIO+Parquet split.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["ObjectMeta", "ObjectStore"]


@dataclass(frozen=True)
class ObjectMeta:
    """Metadata of one stored object."""

    bucket: str
    key: str
    size: int
    created_at: float
    user_meta: dict[str, str] = field(default_factory=dict)


class ObjectStore:
    """In-process object store with S3 semantics (put/get/list/delete)."""

    def __init__(self) -> None:
        self._buckets: dict[str, dict[str, tuple[bytes, ObjectMeta]]] = {}
        #: Monotone mutation stamp: bumped after every ``put``
        #: (overwrites included) and ``delete`` — the only ways the
        #: contents change — so a listing taken after reading a stamp
        #: stays current for as long as the stamp reads the same.
        self.stamp = 0
        # Callers may put from their own threads; an increment lost
        # between two of them could make the stamp repeat.
        self._stamp_lock = threading.Lock()
        self.puts = 0
        self.gets = 0
        self.bytes_written = 0
        self.bytes_read = 0

    # -- buckets --------------------------------------------------------------

    def create_bucket(self, bucket: str) -> None:
        """Create a bucket (idempotent)."""
        self._buckets.setdefault(bucket, {})

    def buckets(self) -> list[str]:
        """All bucket names, sorted."""
        return sorted(self._buckets)

    def _bucket(self, bucket: str) -> dict[str, tuple[bytes, ObjectMeta]]:
        try:
            return self._buckets[bucket]
        except KeyError:
            raise KeyError(f"no such bucket {bucket!r}") from None

    # -- objects --------------------------------------------------------------

    def put(
        self,
        bucket: str,
        key: str,
        data: bytes,
        *,
        created_at: float = 0.0,
        user_meta: dict[str, str] | None = None,
        overwrite: bool = False,
    ) -> ObjectMeta:
        """Store an object.  Objects are immutable unless ``overwrite``."""
        objs = self._bucket(bucket)
        if key in objs and not overwrite:
            raise ValueError(f"object {bucket}/{key} exists (objects are immutable)")
        meta = ObjectMeta(bucket, key, len(data), created_at, dict(user_meta or {}))
        objs[key] = (bytes(data), meta)
        with self._stamp_lock:
            self.stamp += 1
        self.puts += 1
        self.bytes_written += len(data)
        return meta

    def get(self, bucket: str, key: str) -> bytes:
        """Fetch an object's bytes (KeyError if missing)."""
        objs = self._bucket(bucket)
        try:
            data, _ = objs[key]
        except KeyError:
            raise KeyError(f"no object {bucket}/{key}") from None
        self.gets += 1
        self.bytes_read += len(data)
        return data

    def head(self, bucket: str, key: str) -> ObjectMeta:
        """Fetch metadata without counting a data read."""
        objs = self._bucket(bucket)
        try:
            return objs[key][1]
        except KeyError:
            raise KeyError(f"no object {bucket}/{key}") from None

    def exists(self, bucket: str, key: str) -> bool:
        """True if the object is present."""
        return key in self._buckets.get(bucket, {})

    def list(self, bucket: str, prefix: str = "") -> list[ObjectMeta]:
        """Metadata of all objects under ``prefix``, key-sorted."""
        objs = self._bucket(bucket)
        return [
            meta
            for key, (_, meta) in sorted(objs.items())
            if key.startswith(prefix)
        ]

    def delete(self, bucket: str, key: str) -> None:
        """Remove an object (KeyError if missing)."""
        objs = self._bucket(bucket)
        if key not in objs:
            raise KeyError(f"no object {bucket}/{key}")
        del objs[key]
        with self._stamp_lock:
            self.stamp += 1

    # -- accounting -----------------------------------------------------------

    def bucket_bytes(self, bucket: str) -> int:
        """Stored bytes in one bucket."""
        return sum(meta.size for _, meta in self._bucket(bucket).values())

    def total_bytes(self) -> int:
        """Stored bytes across all buckets."""
        return sum(self.bucket_bytes(b) for b in self._buckets)

    def total_objects(self) -> int:
        """Object count across all buckets."""
        return sum(len(objs) for objs in self._buckets.values())
