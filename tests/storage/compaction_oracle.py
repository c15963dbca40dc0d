"""The whole-table compactor, kept as the byte-identity oracle.

:class:`WholeTableStore` compacts the way the store did before the
streaming merge: decode every input, concatenate, ``np.lexsort`` by
(span epoch, time), gather, encode the result in one ``write_table`` and
take the manifest from a second pass over the table.  It is slow and
holds several copies of the dataset on purpose — what it writes is the
definition of what :meth:`TieredStore.compact` must write.
"""

import numpy as np

from repro.columnar import ColumnTable
from repro.columnar.file_format import read_table, write_table
from repro.faults.retry import call_with_retry
from repro.storage import TieredStore, manifest
from repro.storage.tiers import merge_suffix


class WholeTableStore(TieredStore):
    def _compact_impl(self, name, min_objects):
        meta = self._meta(name)
        policy = self.policies[meta.data_class]
        parts = self._live_parts(name)
        shapes = []
        for p in parts:
            spans = p.spans
            shapes.append(
                (len(spans), sum(n for _, n in spans)) if spans else (1, None)
            )
        n_merge = merge_suffix(shapes, policy.row_group_size, min_objects)
        if n_merge == 0:
            return {"merged": 0, "bytes_before": 0, "bytes_after": 0}
        parts = parts[-n_merge:]
        bytes_before = sum(p.meta.size for p in parts)
        blobs = [self.ocean.get(self.OCEAN_BUCKET, p.key) for p in parts]
        tables = [read_table(b) for b in blobs]
        created_runs = []
        for p, t in zip(parts, tables):
            spans = p.spans_for(t.num_rows) or [(p.created_at, t.num_rows)]
            created_runs.append(
                np.repeat([c for c, _ in spans], [n for _, n in spans])
            )
        combined = ColumnTable.concat(tables)
        created = np.concatenate(created_runs)
        if self.time_column in combined.column_names:
            ts = np.asarray(combined[self.time_column], dtype=np.float64)
            order = np.lexsort((ts, created))
        else:
            order = np.argsort(created, kind="stable")
        combined = combined.take(order)
        created = created[order]
        bounds = np.flatnonzero(np.diff(created)) + 1
        starts = np.concatenate(([0], bounds))
        ends = np.concatenate((bounds, [created.size]))
        out_spans = [
            (float(created[s]), int(e - s)) for s, e in zip(starts, ends)
        ]
        blob = write_table(
            combined, codec=policy.codec, row_group_size=policy.row_group_size
        )
        key = f"{name}/part-{self._allocate_part(meta):08d}.rcf"
        user_meta = {
            "dataset": name,
            "class": meta.data_class.value,
            "compacted_from": str(len(parts)),
        }
        user_meta.update(manifest.part_meta(combined, blob))
        user_meta[manifest.SPANS_META_KEY] = manifest.spans_to_meta(out_spans)
        user_meta[manifest.REPLACES_META_KEY] = manifest.replaces_to_meta(
            [p.key for p in parts]
        )
        call_with_retry(
            lambda: self.ocean.put(
                self.OCEAN_BUCKET,
                key,
                blob,
                created_at=float(created[-1]),
                user_meta=user_meta,
            ),
            policy=self.retry_policy,
            site="tier.ocean.put",
        )
        for ru in self._rollups_for(name):
            ru.observe_part(key, combined)
            self._lineage_partial(ru.spec.name, key)
        cat = self.lineage
        if cat is not None:
            nid = cat.record(
                "part",
                (self.OCEAN_BUCKET, key),
                attrs={"dataset": name, "key": key, "rows": combined.num_rows},
            )
            cat.supersede(
                nid, [cat.part_node(self.OCEAN_BUCKET, p.key) for p in parts]
            )
        for p, old_blob in zip(parts, blobs):
            self._retire(p, old_blob)
        return {
            "merged": len(parts),
            "bytes_before": bytes_before,
            "bytes_after": len(blob),
        }


def dump(store: TieredStore) -> list[tuple]:
    """Everything OCEAN holds: key, ``created_at``, manifest, bytes."""
    return [
        (
            m.key,
            m.created_at,
            sorted(m.user_meta.items()),
            store.ocean.get(store.OCEAN_BUCKET, m.key),
        )
        for m in sorted(
            store.ocean.list(store.OCEAN_BUCKET, prefix=""), key=lambda m: m.key
        )
    ]


def fresh_live(store: TieredStore, name: str) -> list:
    """A dataset's live parts derived from a listing taken now — what
    :meth:`TieredStore._live_parts` must hand out (as ``ObjectMeta``),
    memoized or not."""
    metas = store.ocean.list(store.OCEAN_BUCKET, prefix=f"{name}/")
    dead = set()
    for m in metas:
        dead.update(
            manifest.replaces_from_meta(
                m.user_meta.get(manifest.REPLACES_META_KEY)
            )
            or ()
        )

    def ingest_order(m):
        spans = manifest.spans_from_meta(m.user_meta.get(manifest.SPANS_META_KEY))
        return (spans[0][0] if spans else m.created_at, m.key)

    return sorted((m for m in metas if m.key not in dead), key=ingest_order)


def live_metas(store: TieredStore, name: str) -> list:
    """The ``ObjectMeta`` of each part :meth:`TieredStore._live_parts`
    hands out, to compare with :func:`fresh_live`."""
    return [p.meta for p in store._live_parts(name)]


def open_handles(store: TieredStore, name: str = "d") -> dict:
    """Part key -> read handle, for every part of the listing the store
    last derived for ``name`` that holds one.  Nothing is derived here,
    so asking parses no manifest and a part retired since that listing
    shows up only if its handle outlived it."""
    held = store._parts._listings.get(name)
    present = held[2].present if held is not None else ()
    return {p.key: p.reader for p in present if p.reader is not None}
