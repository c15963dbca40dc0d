"""Catalog unit behavior: identity, closures, liveness, advisories, CLI.

The catalog's contracts that everything else builds on: node IDs are
pure functions of coordinates (so re-recording merges, never forks),
closure queries traverse flow edges only (supersedes is liveness
bookkeeping), live-part queries respect both tombstone chains and
retention retirement, advisories propagate downstream, and the export
is canonical — same graph, same bytes, regardless of insertion order.
"""

import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lineage import (
    FLOW_EDGE_KINDS,
    LineageCatalog,
    LineageFormatError,
    batch_id,
    blast_radius,
    node_id,
    part_id,
)
from repro.lineage.__main__ import main as lineage_main


class TestIdentity:
    def test_ids_are_pure_coordinate_functions(self):
        assert node_id("part", "oda", "d/p0") == node_id("part", "oda", "d/p0")
        assert node_id("part", "oda", "d/p0") != node_id("part", "oda", "d/p1")
        assert node_id("part", "oda", "d/p0") != node_id("batch", "oda", "d/p0")

    def test_float_coordinates_use_repr(self):
        # 30.0 and "30.0" must collide (coords are stringified), but
        # 30.0 and 30.5 must not.
        assert batch_id("d", 30.0) == batch_id("d", 30.0)
        assert batch_id("d", 30.0) != batch_id("d", 30.5)

    def test_no_separator_collisions(self):
        # The joiner is out-of-band (0x1f), so coordinate text cannot
        # smuggle a boundary.
        assert node_id("part", "a:b", "c") != node_id("part", "a", "b:c")

    def test_record_is_idempotent_and_merges(self):
        cat = LineageCatalog()
        first = cat.record("part", ("oda", "d/p0"), attrs={"rows": 3}, span="s1")
        again = cat.record(
            "part", ("oda", "d/p0"), attrs={"rows": 99, "extra": 1}, span="s2"
        )
        assert first == again
        assert len(cat) == 1
        node = cat.node(first)
        # First recording wins span and existing attrs; new keys merge.
        assert node["span"] == "s1"
        assert node["attrs"] == {"rows": 3, "extra": 1}


class TestClosures:
    def build(self):
        # window -> batch -> part -> partial -> query -> envelope
        cat = LineageCatalog()
        w = cat.record("topic_window", ("power", "m:power", 0.0), span="")
        b = cat.record("batch", ("d", 30.0), span="")
        p = cat.record("part", ("oda", "d/p0"), attrs={"dataset": "d", "key": "d/p0"}, span="")
        r = cat.record("rollup_partial", ("d.roll", "d/p0"), span="")
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        e = cat.record("envelope", ("t0", "ep", "fp", 0), span="")
        cat.link(w, b)
        cat.link(b, p)
        cat.link(p, r)
        cat.link(q, e, "read")
        cat.link(p, q, "read")
        return cat, (w, b, p, r, q, e)

    def test_downstream_and_upstream_are_inverse(self):
        cat, (w, b, p, r, q, e) = self.build()
        assert cat.downstream(w) == sorted([b, p, r, q, e])
        # The rollup partial is a sibling branch off the part: it feeds
        # nothing into the envelope, so it is absent from its upstream.
        assert cat.upstream(e) == sorted([w, b, p, q])
        assert cat.downstream(r) == []
        assert cat.upstream(w) == []

    def test_supersedes_is_not_a_flow_edge(self):
        cat, (w, b, p, r, q, e) = self.build()
        combined = cat.record("part", ("oda", "d/p1"), span="")
        cat.supersede(combined, [p])
        # The rewrite's data flow is the derived edge old -> new...
        assert combined in cat.downstream(p)
        # ...but the supersedes edge itself never enters a closure:
        # nothing upstream of the dead part came from its replacement.
        assert combined not in cat.upstream(p)
        assert "supersedes" not in FLOW_EDGE_KINDS

    def test_unknown_edge_kind_rejected(self):
        cat = LineageCatalog()
        with pytest.raises(ValueError):
            cat.link("a", "b", "causes")


class TestLiveness:
    def test_superseded_parts_leave_the_live_set_but_not_history(self):
        cat = LineageCatalog()
        olds = [
            cat.record(
                "part", ("oda", f"d/p{i}"),
                attrs={"dataset": "d", "key": f"d/p{i}"}, span="",
            )
            for i in range(3)
        ]
        new = cat.record(
            "part", ("oda", "d/c0"), attrs={"dataset": "d", "key": "d/c0"}, span=""
        )
        cat.supersede(new, olds)
        assert cat.live_parts("d") == ["d/c0"]
        # History is the point: the dead parts are still queryable nodes.
        assert all(cat.node(nid) is not None for nid in olds)

    def test_retired_parts_leave_the_live_set(self):
        cat = LineageCatalog()
        cat.record("part", ("oda", "d/p0"), attrs={"dataset": "d", "key": "d/p0"}, span="")
        cat.retire(cat.part_node("oda", "d/p0"))
        assert cat.live_parts("d") == []
        assert cat.node(cat.part_node("oda", "d/p0"))["retired"] is True

    def test_retire_unknown_node_is_a_noop(self):
        cat = LineageCatalog()
        cat.retire(part_id("oda", "never/recorded"))
        assert len(cat) == 0

    def test_live_parts_filters_by_dataset(self):
        cat = LineageCatalog()
        cat.record("part", ("oda", "a/p0"), attrs={"dataset": "a", "key": "a/p0"}, span="")
        cat.record("part", ("oda", "b/p0"), attrs={"dataset": "b", "key": "b/p0"}, span="")
        assert cat.live_parts("a") == ["a/p0"]
        assert cat.live_parts() == ["a/p0", "b/p0"]


class TestAdvisories:
    def test_advisories_propagate_downstream_only(self):
        cat = LineageCatalog()
        p = cat.record("part", ("oda", "d/p0"), span="")
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        cat.link(p, q, "read")
        advisory = {"request_id": 7, "verdict": "approve"}
        cat.attach_advisory(p, advisory)
        inherited = cat.advisories(q)
        assert len(inherited) == 1
        assert inherited[0]["request_id"] == 7
        assert inherited[0]["source"] == p
        # Direct-only view of the query node is empty...
        assert cat.advisories(q, inherited=False) == []
        # ...and nothing flows upstream.
        assert cat.advisories(p) == [dict(advisory, source=p)]

    def test_attach_deduplicates_and_requires_node(self):
        cat = LineageCatalog()
        p = cat.record("part", ("oda", "d/p0"), span="")
        cat.attach_advisory(p, {"request_id": 1})
        cat.attach_advisory(p, {"request_id": 1})
        assert len(cat.advisories(p)) == 1
        with pytest.raises(KeyError):
            cat.attach_advisory(part_id("oda", "ghost"), {"request_id": 2})

    @pytest.mark.parametrize(
        "pair",
        [
            ({"role": "x"}, {"role": 1}),
            ({"v": {"a": 1}}, {"v": {"b": 2}}),
            ({"at": None}, {"at": 3.5}),
        ],
        ids=["str-vs-int", "dict-vs-dict", "none-vs-float"],
    )
    def test_values_of_mixed_types_are_ordered(self, pair, tmp_path):
        """Advisories whose values are not mutually comparable still list,
        directly, inherited and after a dump round trip."""
        cat = LineageCatalog()
        p = cat.record("part", ("oda", "d/p0"), span="")
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        cat.link(p, q, "read")
        for advisory in pair:
            cat.attach_advisory(p, advisory)
        direct = cat.advisories(p)
        assert sorted(json.dumps(a, sort_keys=True) for a in direct) == sorted(
            json.dumps(dict(a, source=p), sort_keys=True) for a in pair
        )
        assert cat.advisories(q) == direct
        path = tmp_path / "catalog.json"
        cat.write_json(path)
        loaded = LineageCatalog.read_json(path)
        assert loaded.advisories(p) == direct
        assert loaded.advisories(q) == direct

    def test_dataruc_annotation_reaches_downstream_artifacts(self):
        from repro.governance.dataruc import DataRUC, RequestType

        cat = LineageCatalog()
        p = cat.record(
            "part", ("oda", "d/p0"), attrs={"dataset": "d", "key": "d/p0"}, span=""
        )
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        cat.link(p, q, "read")
        ruc = DataRUC()
        request = ruc.submit(
            "alice", RequestType.INTERNAL_PROJECT, ["d"], "audit", now=0.0
        )
        ruc.run_reviews(request.request_id, now=0.0)
        annotated = ruc.annotate_lineage(request.request_id, cat)
        assert annotated == 1
        got = cat.advisories(q)
        assert got and all(a["request_id"] == request.request_id for a in got)
        assert {a["verdict"] for a in got} == {"approve"}


class TestExport:
    def build_shuffled(self, order):
        cat = LineageCatalog()
        items = [
            ("part", ("oda", "d/p0"), {"dataset": "d", "key": "d/p0"}),
            ("batch", ("d", 30.0), {"dataset": "d"}),
            ("query_result", ("archive", "d", 1, ""), {}),
        ]
        for i in order:
            kind, coords, attrs = items[i]
            cat.record(kind, coords, attrs=attrs, span="")
        cat.link(node_id("batch", "d", 30.0), part_id("oda", "d/p0"))
        return cat

    def test_export_is_insertion_order_independent(self):
        a = self.build_shuffled([0, 1, 2])
        b = self.build_shuffled([2, 0, 1])
        assert a.export_json() == b.export_json()
        assert a.export_digest() == b.export_digest()

    def test_load_round_trips(self, tmp_path):
        cat = self.build_shuffled([0, 1, 2])
        path = tmp_path / "catalog.json"
        cat.write_json(path)
        back = LineageCatalog.read_json(path)
        assert back.export_json() == cat.export_json()
        assert back.live_parts() == cat.live_parts()


def small_catalog() -> LineageCatalog:
    """Every node field and edge kind: three parts (one superseded, one
    retired, one live), a batch, a query result with an advisory."""
    cat = LineageCatalog()
    b = cat.record("batch", ("d", 30.0), attrs={"dataset": "d"}, span="s1")
    p0 = cat.record("part", ("oda", "d/p0"), attrs={"dataset": "d", "key": "d/p0"}, span="")
    p1 = cat.record("part", ("oda", "d/p1"), attrs={"dataset": "d", "key": "d/p1"}, span="")
    p2 = cat.record("part", ("oda", "d/p2"), attrs={"dataset": "d", "key": "d/p2"}, span="")
    q = cat.record("query_result", ("archive", "d", 1, ""), span="")
    cat.link(b, p0)
    cat.link(b, p2)
    cat.supersede(p1, [p0])
    cat.link(p1, q, "read")
    cat.retire(p1)
    cat.attach_advisory(q, {"role": "steward", "verdict": "ok"})
    return cat


def canonical(exported: dict) -> dict:
    """What :meth:`LineageCatalog.export` gives for a dump it accepts:
    nodes by ID, edges sorted and distinct."""
    return {
        "nodes": sorted(exported.get("nodes", []), key=lambda n: n["id"]),
        "edges": [list(e) for e in sorted({tuple(e) for e in exported.get("edges", [])})],
    }


class TestLoadFormat:
    """A dump ``export`` could not have written is a LineageFormatError."""

    def write(self, tmp_path, text):
        path = tmp_path / "catalog.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return path

    @pytest.mark.parametrize(
        "exported",
        [
            [],
            "catalog",
            None,
            {"nodes": [1]},
            {"nodes": {}},
            {"edges": "a"},
            {"nodes": [{"id": 5}]},
            {"edges": [["a", "b", "bogus"]]},
            {"edges": [["a", "b"]]},
            {"edges": [["a", 1, "read"]]},
            {"edges": [("a", "b", "read")]},
        ],
        ids=repr,
    )
    def test_malformed_export_raises_typed(self, exported):
        with pytest.raises(LineageFormatError):
            LineageCatalog.load(exported)

    def test_every_node_field_is_checked(self):
        node = small_catalog().export()["nodes"][0]
        for field in node:
            for bad in (None, 5, [5]):
                mangled = dict(node, **{field: bad})
                with pytest.raises(LineageFormatError, match=repr(field)):
                    LineageCatalog.load({"nodes": [mangled]})
            missing = {k: v for k, v in node.items() if k != field}
            with pytest.raises(LineageFormatError):
                LineageCatalog.load({"nodes": [missing]})

    def test_duplicate_node_id_raises(self):
        node = small_catalog().export()["nodes"][0]
        with pytest.raises(LineageFormatError, match="twice"):
            LineageCatalog.load({"nodes": [node, node]})

    def test_torn_or_undecodable_file_raises_typed(self, tmp_path):
        text = small_catalog().export_json()
        for bad in (text[:-1], "", b"\xff{}", "[]"):
            with pytest.raises(LineageFormatError):
                LineageCatalog.read_json(self.write(tmp_path, bad))

    def test_an_empty_export_is_an_empty_catalog(self):
        for exported in ({}, {"nodes": [], "edges": []}):
            assert LineageCatalog.load(exported).export() == {"nodes": [], "edges": []}


TEXT = small_catalog().export_json()
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "derived", "read", "supersedes", "part", "d/p0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "key", "dataset", "role"]), inner, max_size=3),
    max_leaves=6,
)
# Mostly values of a field's own JSON type but the wrong content: an
# unknown edge kind, coords or advisories of the wrong element type.
MANGLED = st.one_of(
    JSON_VALUES,
    st.sampled_from(["bogus", "Read", "node"]),
    st.lists(st.integers(0, 3) | st.text(max_size=2), min_size=1, max_size=2),
)


@settings(deadline=None)
@given(cut=st.integers(0, len(TEXT)))
def test_every_prefix_loads_typed_or_whole(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("lineage") / "catalog.json"
    path.write_text(TEXT[:cut], encoding="utf-8")
    try:
        cat = LineageCatalog.read_json(path)
    except LineageFormatError:
        assert cut < len(TEXT)
        return
    assert cat.export_json() == TEXT


@settings(deadline=None)
@given(data=st.data())
def test_any_mangled_field_loads_typed_or_as_written(data):
    exported = copy.deepcopy(json.loads(TEXT))
    where = data.draw(st.sampled_from(["top", "node", "node field", "edge", "edge field"]))
    value = data.draw(MANGLED)
    if where == "top":
        exported[data.draw(st.sampled_from(["nodes", "edges"]))] = value
    elif where.startswith("node"):
        i = data.draw(st.integers(0, len(exported["nodes"]) - 1))
        if where == "node":
            exported["nodes"][i] = value
        else:
            field = data.draw(st.sampled_from(sorted(exported["nodes"][i])))
            if data.draw(st.booleans()):
                exported["nodes"][i][field] = value
            else:
                del exported["nodes"][i][field]
    else:
        i = data.draw(st.integers(0, len(exported["edges"]) - 1))
        if where == "edge":
            exported["edges"][i] = value
        else:
            exported["edges"][i][data.draw(st.integers(0, 2))] = value
    try:
        cat = LineageCatalog.load(json.loads(json.dumps(exported)))
    except LineageFormatError:
        return
    assert cat.export() == canonical(exported)
    # What was accepted is a catalog the recording API could have made
    # — every edge one that link() takes — and answers its queries.
    for edge in cat.edges():
        LineageCatalog().link(*edge)
    cat.live_parts()
    cat.live_parts("d")
    for node in cat.nodes():
        cat.downstream(node["id"])
        cat.upstream(node["id"])
        cat.advisories(node["id"])
    blast_radius(cat, corrupted_keys=["d/p0"])


class TestBlastRadiusUnit:
    def test_clean_report_when_nothing_corrupted(self):
        cat = LineageCatalog()
        report = blast_radius(cat)
        assert report["clean"] is True
        assert report["corrupted_parts"] == []

    def test_duck_typed_injector_keys_merge_with_explicit(self):
        class FakeInjector:
            corrupted = [("tier.put", 3, "d/p1"), ("tier.put", 4, "d/p1")]

        cat = LineageCatalog()
        p0 = cat.record("part", ("oda", "d/p0"), attrs={"key": "d/p0"}, span="")
        cat.record("part", ("oda", "d/p1"), attrs={"key": "d/p1"}, span="")
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        cat.link(p0, q, "read")
        report = blast_radius(
            cat, corrupted_keys=["d/p0"], injector=FakeInjector()
        )
        assert report["corrupted_parts"] == ["d/p0", "d/p1"]
        assert [n["id"] for n in report["affected"]["query_result"]] == [q]
        assert report["clean"] is False


class TestCLI:
    def dump(self, tmp_path):
        cat = LineageCatalog()
        p = cat.record(
            "part", ("oda", "d/p0"), attrs={"dataset": "d", "key": "d/p0"}, span=""
        )
        q = cat.record("query_result", ("archive", "d", 1, ""), span="")
        cat.link(p, q, "read")
        path = tmp_path / "catalog.json"
        cat.write_json(path)
        return str(path), p, q

    def test_report_text_and_json(self, tmp_path):
        path, p, q = self.dump(tmp_path)
        out = io.StringIO()
        assert lineage_main(["report", path], out=out) == 0
        text = out.getvalue()
        assert "2 nodes" in text and "d/p0" in text
        out = io.StringIO()
        assert lineage_main(["report", path, "--format", "json"], out=out) == 0
        payload = json.loads(out.getvalue())
        assert payload["by_kind"] == {"part": 1, "query_result": 1}
        assert payload["live_parts"] == ["d/p0"]

    def test_impact_down_and_up(self, tmp_path):
        path, p, q = self.dump(tmp_path)
        out = io.StringIO()
        rc = lineage_main(
            ["impact", path, "--part", "d/p0", "--format", "json"], out=out
        )
        assert rc == 0
        payload = json.loads(out.getvalue())
        assert payload["closure"] == {"query_result": [q]}
        out = io.StringIO()
        rc = lineage_main(
            ["impact", path, "--node", q, "--direction", "up", "--format", "json"],
            out=out,
        )
        assert rc == 0
        assert json.loads(out.getvalue())["closure"] == {"part": [p]}

    def test_damaged_or_missing_dump_fails_cleanly(self, tmp_path, capsys):
        path, _, _ = self.dump(tmp_path)
        with open(path, "r+", encoding="utf-8") as fh:
            fh.truncate(10)
        for target in (path, str(tmp_path / "absent.json")):
            assert lineage_main(["report", target], out=io.StringIO()) == 1
        err = capsys.readouterr().err
        assert "not a lineage dump" in err and "absent.json" in err

    def test_impact_unknown_node_fails_cleanly(self, tmp_path):
        path, _, _ = self.dump(tmp_path)
        out = io.StringIO()
        assert lineage_main(["impact", path, "--part", "ghost"], out=out) == 1
