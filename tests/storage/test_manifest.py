"""Manifest parsers: parsed once per part record, shared safely.

A part's ``LivePart`` record runs each of the four ``*_from_meta``
parsers at most once and hands that one parse to every caller that asks
— so it must be immutable — and an unreadable manifest must still
degrade to None (the part stays scannable, it only loses the prune).
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import Col, ColumnTable
from repro.columnar.file_format import write_table
from repro.obs import METRICS
from repro.storage import DataClass, ObjectMeta, TieredStore, manifest
from repro.storage.parts import LivePart

PARSERS = [
    (manifest.stats_from_meta, '{"t":[0.0,9.0],"p":[1.0,2.0,false],"s":null}'),
    (manifest.columns_from_meta, '["t","p","s"]'),
    (manifest.spans_from_meta, "[[0.0,20],[1.0,30]]"),
    (manifest.replaces_from_meta, '["d/part-00000000.rcf","d/part-00000001.rcf"]'),
]


#: The record property that runs each parser — named like its meta key.
META_KEYS = {
    manifest.stats_from_meta: manifest.STATS_META_KEY,
    manifest.columns_from_meta: manifest.COLUMNS_META_KEY,
    manifest.spans_from_meta: manifest.SPANS_META_KEY,
    manifest.replaces_from_meta: manifest.REPLACES_META_KEY,
}


def record(meta_key, raw):
    """A part record whose manifest holds only ``meta_key: raw``."""
    user_meta = {} if raw is None else {meta_key: raw}
    return LivePart(ObjectMeta("oda", "d/part-00000000.rcf", 0, 0.0, user_meta))


def test_round_trip_values():
    stats, columns, spans, replaces = (parser(raw) for parser, raw in PARSERS)
    assert dict(stats) == {"t": (0.0, 9.0), "p": (1.0, 2.0, False), "s": None}
    assert columns == ("t", "p", "s")
    assert spans == ((0.0, 20), (1.0, 30))
    assert replaces == ("d/part-00000000.rcf", "d/part-00000001.rcf")
    assert record(manifest.SPANS_META_KEY, PARSERS[2][1]).spans[0][0] == 0.0


@pytest.mark.parametrize("parser,raw", PARSERS)
def test_each_string_is_parsed_once(parser, raw):
    """... by the record that carries it; a new record — a new part, or
    the same part seen by a restarted store — parses afresh."""
    meta_key = META_KEYS[parser]
    part = record(meta_key, raw)
    parses0 = METRICS.counter("manifest.parses")
    first = getattr(part, meta_key)
    assert METRICS.counter("manifest.parses") - parses0 == 1
    assert getattr(part, meta_key) is first
    assert getattr(part, meta_key) is first
    assert METRICS.counter("manifest.parses") - parses0 == 1
    assert first == parser(raw)
    assert getattr(record(meta_key, str(raw)), meta_key) == first
    assert METRICS.counter("manifest.parses") - parses0 == 3


def test_shared_parses_cannot_be_mutated():
    stats, columns, spans, replaces = (parser(raw) for parser, raw in PARSERS)
    with pytest.raises(TypeError):
        stats["t"] = (5.0, 6.0)
    with pytest.raises(TypeError):
        del stats["p"]
    for shared in (columns, spans, replaces, spans[0], stats["t"]):
        assert isinstance(shared, tuple)
    assert dict(PARSERS[0][0](PARSERS[0][1]))["t"] == (0.0, 9.0)


@pytest.mark.parametrize("parser,_", PARSERS)
@pytest.mark.parametrize("raw", [None, "", "{not json", "42", '"text"'])
def test_absent_or_mangled_metadata_is_none(parser, _, raw):
    assert parser(raw) is None


def test_wrong_shape_is_none():
    assert manifest.stats_from_meta('["a","b"]') is None
    assert manifest.columns_from_meta('{"a":1}') is None
    assert manifest.replaces_from_meta('{"a":1}') is None
    assert manifest.spans_from_meta("[[0.0,20],[1.0]]") is None
    assert manifest.spans_from_meta("[[0.0,20],7]") is None
    assert record(manifest.SPANS_META_KEY, "[]").spans is None
    assert record(manifest.SPANS_META_KEY, None).spans is None


# -- valid JSON of the wrong shape ---------------------------------------------
#
# Each raw value below is well-formed JSON that the pre-validation parsers
# either raised on at query time or accepted as garbage bounds/runs.

MANGLED = {
    "stats": [
        '{"value":5}',  # TypeError: object of type 'int' has no len()
        '{"value":[1]}',  # IndexError
        '{"value":"zz"}',  # was accepted as bounds ('z', 'z')
        '{"value":[1,2,3]}',  # third element must be a bool
        '{"value":[[0],[1]]}',
        '{"value":[null,1]}',
        '{"value":[NaN,NaN]}',  # every comparison False: prunes everything
        '{"value":[true,false]}',
    ],
    "spans": [
        '[["x",1]]',  # ValueError from query_archive and compact
        "[[1.0,-3]]",  # was accepted as a negative run
        "[[1.0,2.5]]",
        "[[NaN,20]]",
        "[[Infinity,20]]",
        "[[1e999,20]]",
        "[[%d,20]]" % 10**400,
        "[[true,20]]",
        "[[0.0,true]]",
    ],
    "columns": ['["timestamp",1]', "[null]", '[["timestamp"]]'],
    "replaces": ['["d/part-0",1]', "[null]"],
}


@pytest.mark.parametrize(
    "field,raw", [(f, raw) for f, raws in MANGLED.items() for raw in raws]
)
def test_wrong_typed_entries_void_the_whole_value(field, raw):
    assert getattr(manifest, f"{field}_from_meta")(raw) is None


def test_well_typed_edge_values_still_parse():
    stats = manifest.stats_from_meta(
        '{"a":[-Infinity,Infinity],"s":["","zz"],"n":[1,2,false],"x":null}'
    )
    assert dict(stats) == {
        "a": (float("-inf"), float("inf")),
        "s": ("", "zz"),
        "n": (1, 2, False),
        "x": None,
    }
    assert manifest.spans_from_meta("[[3,0],[4.5,7]]") == ((3.0, 0), (4.5, 7))
    assert manifest.columns_from_meta("[]") == ()


def _batch(t_start, n=20):
    return ColumnTable(
        {
            "timestamp": t_start + np.arange(n, dtype=float),
            "node": (np.arange(n) % 4).astype(float),
            "value": 100.0 + np.arange(n, dtype=float) + t_start,
        }
    )


def _store(mangle=None):
    """Five single-span parts; ``mangle`` = (meta key, raw) edits part 1."""
    ts = TieredStore()
    ts.register("d", DataClass.SILVER)
    for i in range(5):
        ts.ingest("d", _batch(i * 100.0), now=float(i))
    if mangle is not None:
        metas = ts.ocean.list(ts.OCEAN_BUCKET, prefix="d/")
        metas[1].user_meta[mangle[0]] = mangle[1]
    return ts


def _answers(ts):
    return [
        write_table(ts.query_archive("d", *args))
        for args in (
            (),
            (100.0, 250.0),
            (None, None, Col("value") >= 205.0),
            (None, None, Col("node") == 2.0, ["timestamp", "value"]),
        )
    ]


@pytest.mark.parametrize(
    "field,raw",
    [(f, raw) for f in ("stats", "spans", "columns") for raw in MANGLED[f]],
)
def test_mangled_manifest_answers_like_the_clean_store(field, raw):
    key = getattr(manifest, f"{field.upper()}_META_KEY")
    clean, mangled = _store(), _store((key, raw))
    assert _answers(mangled) == _answers(clean)
    # ... and the part still compacts: it ages as one opaque block.
    assert mangled.compact("d")["merged"] == clean.compact("d")["merged"] == 5
    assert _answers(mangled) == _answers(clean)


_json = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(10**400), 10**400)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(value=_json)
def test_parsers_never_raise_on_arbitrary_json(value):
    raw = json.dumps(value)
    stats = manifest.stats_from_meta(raw)
    if stats is not None:
        for name, bounds in stats.items():
            assert type(name) is str
            assert bounds is None or (
                len(bounds) in (2, 3)
                and all(type(b) in (str, int, float) for b in bounds[:2])
                and all(type(b) is bool for b in bounds[2:])
            )
    spans = manifest.spans_from_meta(raw)
    if spans is not None:
        for epoch, rows in spans:
            assert type(epoch) is float and math.isfinite(epoch)
            assert type(rows) is int and rows >= 0
    assert record(manifest.SPANS_META_KEY, raw).spans == (spans or None)
    for parser in (manifest.columns_from_meta, manifest.replaces_from_meta):
        names = parser(raw)
        assert names is None or all(type(n) is str for n in names)


@settings(max_examples=200, deadline=None)
@given(raw=st.text(max_size=40))
def test_parsers_never_raise_on_arbitrary_text(raw):
    for parser, _ in PARSERS:
        parser(raw)


def test_seeded_run_writes_the_pinned_manifests():
    # Ingest writes manifests from the table, compaction merges them
    # from the row-group stats of the part it wrote; sixteen windows of
    # a seeded MINI deployment with two lifecycle ticks do both.  The
    # digest of every OCEAN part's key and manifest is pinned: reading
    # group stats differently must not move one byte.
    import hashlib

    from repro.core import DataPlaneOptions, ODAFramework
    from repro.telemetry import MINI, synthetic_job_mix

    window_s, n_windows = 15.0, 16
    rng = np.random.default_rng(7)
    allocation = synthetic_job_mix(MINI, 0.0, n_windows * window_s, rng)
    options = DataPlaneOptions(lifecycle=True, lifecycle_every_s=6 * window_s)
    fw = ODAFramework(MINI, allocation, seed=7, options=options)
    try:
        fw.run(0.0, n_windows * window_s, window_s)
    finally:
        fw.close()
    metas = [
        (m.key, m.user_meta) for m in fw.tiers.ocean.list(fw.tiers.OCEAN_BUCKET)
    ]
    assert sum("compacted_from" in meta for _, meta in metas) > 0
    digest = hashlib.blake2b(
        json.dumps(metas, sort_keys=True).encode(), digest_size=16
    ).hexdigest()
    assert digest == "59a59abb79a819f4d04d36857116fe17"
