"""Exporters: span trees, JSONL round-trips, the self-telemetry loop."""

import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    METRICS,
    TRACER,
    Tracer,
    health_batch,
    health_catalog,
    read_jsonl,
    span_tree,
    write_jsonl,
)
from repro.obs.metrics import MetricsRegistry


#: Lines a dump may hold after damage that are not JSON objects.
TORN_LINES = [b"\xff\xfe{}", b"12", b'"span"', b"[1, 2]", b"null", b"{\"kind\": \xff}"]


def _as_object(line):
    """The JSON object ``line`` holds, else None (the spec a reader of
    dumps keeps: anything else is a torn line)."""
    try:
        value = json.loads(line.decode("utf-8"))
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


def _small_trace(tracer):
    with tracer.trace(seed=1, name="window", index=0):
        with tracer.span("refine:power"):
            with tracer.span("refine.bronze"):
                pass
        with tracer.span("stream.produce"):
            pass


class TestSpanTree:
    def test_tree_shape(self):
        t = Tracer()
        _small_trace(t)
        (root,) = span_tree(t.finished())
        assert root["name"] == "window"
        child_names = [c["name"] for c in root["children"]]
        assert child_names == ["refine:power", "stream.produce"]
        refine = root["children"][0]
        assert [c["name"] for c in refine["children"]] == ["refine.bronze"]

    def test_orphans_surface_as_roots(self):
        t = Tracer(max_spans=1)
        with t.trace(seed=0, name="w"):
            with t.span("kept"):
                pass
            with t.span("dropped-sibling"):
                pass
        # Only "kept" fits the buffer; its parent was dropped, so it
        # must still appear (as a root), not vanish.
        roots = span_tree(t.finished())
        assert [r["name"] for r in roots] == ["kept"]

    def test_uses_global_tracer_by_default(self):
        _small_trace(TRACER)
        assert span_tree()[0]["name"] == "window"


class TestJsonl:
    def test_round_trip(self, tmp_path):
        t = Tracer()
        _small_trace(t)
        m = MetricsRegistry()
        m.inc("records", 3, topic="power")
        m.set_gauge("lag", 2.0, topic="power")
        path = tmp_path / "trace.jsonl"
        n = write_jsonl(path, tracer=t, metrics=m)
        lines = read_jsonl(path)
        assert len(lines) == n
        kinds = [l["kind"] for l in lines]
        assert kinds.count("span") == 4
        assert sorted(k for k in kinds if k != "span") == ["counter", "gauge"]
        assert "perf" not in kinds  # one registry, one line per meter

    def test_spans_dump_in_deterministic_tree_order(self, tmp_path):
        paths = []
        for i in range(2):
            t = Tracer()
            _small_trace(t)
            p = tmp_path / f"t{i}.jsonl"
            write_jsonl(p, tracer=t, metrics=MetricsRegistry(),
                        include_metrics=False)
            paths.append(p)

        def stripped(path):
            return [
                {k: v for k, v in l.items() if k != "duration_s"}
                for l in read_jsonl(path)
            ]

        assert stripped(paths[0]) == stripped(paths[1])

    def test_dropped_spans_line(self, tmp_path):
        t = Tracer(max_spans=1)
        with t.trace(seed=0, name="w"):
            with t.span("a"):
                pass
        path = tmp_path / "t.jsonl"
        write_jsonl(path, tracer=t, metrics=MetricsRegistry(),
                    include_metrics=False)
        (drop_line,) = [
            l for l in read_jsonl(path) if l["kind"] == "dropped_spans"
        ]
        assert drop_line["count"] == 1

    def test_lines_are_valid_json_objects(self, tmp_path):
        t = Tracer()
        _small_trace(t)
        path = tmp_path / "t.jsonl"
        write_jsonl(path, tracer=t, metrics=MetricsRegistry())
        for raw in path.read_text().splitlines():
            assert isinstance(json.loads(raw), dict)


class TestOrphanMarking:
    def test_severed_children_are_marked_not_silent(self):
        # "kept" survives the one-slot buffer but its parent does not:
        # it surfaces as a root carrying orphaned=True, so a reader can
        # tell a severed subtree from a true root.
        t = Tracer(max_spans=1)
        with t.trace(seed=0, name="w"):
            with t.span("kept"):
                pass
            with t.span("dropped-sibling"):
                pass
        (root,) = span_tree(t.finished())
        assert root["name"] == "kept"
        assert root["orphaned"] is True

    def test_true_roots_are_not_marked(self):
        t = Tracer()
        _small_trace(t)
        (root,) = span_tree(t.finished())
        assert "orphaned" not in root
        assert all("orphaned" not in c for c in root["children"])

    def test_dropped_spans_line_counts_orphans(self, tmp_path):
        t = Tracer(max_spans=1)
        with t.trace(seed=0, name="w"):
            with t.span("kept"):
                pass
            with t.span("dropped-sibling"):
                pass
        path = tmp_path / "t.jsonl"
        write_jsonl(path, tracer=t, metrics=MetricsRegistry(),
                    include_metrics=False)
        (drop_line,) = [
            l for l in read_jsonl(path) if l["kind"] == "dropped_spans"
        ]
        assert drop_line["count"] == t.dropped
        assert drop_line["orphaned"] == 1


class TestTornLines:
    def make_dump(self, tmp_path):
        t = Tracer()
        _small_trace(t)
        path = tmp_path / "t.jsonl"
        write_jsonl(path, tracer=t, metrics=MetricsRegistry(),
                    include_metrics=False)
        return path

    def test_torn_tail_is_skipped_with_warning(self, tmp_path):
        path = self.make_dump(tmp_path)
        whole = read_jsonl(path)
        # Tear the last line mid-object, the crash-mid-write shape.
        text = path.read_text()
        path.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])
        from repro.obs import TraceCorruptWarning

        with pytest.warns(TraceCorruptWarning, match="unparseable line"):
            lines = read_jsonl(path)
        # One bad line costs one line, never the dump.
        assert len(lines) == len(whole) - 1
        assert lines == whole[:-1]

    def test_mid_dump_garbage_is_skipped_and_counted(self, tmp_path):
        path = self.make_dump(tmp_path)
        whole = read_jsonl(path)
        lines = path.read_text().splitlines()
        lines.insert(1, '{"kind": "span", "name": truncated')
        path.write_text("\n".join(lines) + "\n")
        from repro.obs import TraceCorruptWarning

        before = METRICS.counter("obs.trace_lines_skipped")
        with pytest.warns(TraceCorruptWarning):
            assert read_jsonl(path) == whole
        after = METRICS.counter("obs.trace_lines_skipped")
        assert after == before + 1

    def test_undecodable_and_non_object_lines_are_torn(self, tmp_path):
        # Each used to cost the whole dump: a 0xff byte raised
        # UnicodeDecodeError, and ``12`` came back as an int that the
        # report then called ``.get`` on.
        from repro.obs import TraceCorruptWarning
        from repro.obs.__main__ import report

        path = self.make_dump(tmp_path)
        whole = read_jsonl(path)
        lines = path.read_bytes().splitlines()
        for at, junk in enumerate(TORN_LINES):
            lines.insert(2 * at, junk)
        path.write_bytes(b"\n".join(lines) + b"\n")
        before = METRICS.counter("obs.trace_lines_skipped")
        with pytest.warns(TraceCorruptWarning):
            assert read_jsonl(path) == whole
        assert METRICS.counter("obs.trace_lines_skipped") == before + len(TORN_LINES)
        with pytest.warns(TraceCorruptWarning):
            assert report(path, "text", depth=6, out=io.StringIO()) == 0

    @settings(deadline=None)
    @given(
        junk=st.lists(
            st.tuples(
                st.integers(0, 50),
                st.one_of(
                    st.sampled_from(TORN_LINES + [b'{"kind": "other"}']),
                    st.binary(max_size=24).filter(lambda b: b"\n" not in b),
                ),
            ),
            max_size=6,
        )
    )
    def test_any_inserted_line_costs_at_most_itself(self, tmp_path_factory, junk):
        path = self.make_dump(tmp_path_factory.mktemp("torn"))
        lines = path.read_bytes().splitlines()
        for at, line in junk:
            lines.insert(at, line)
        path.write_bytes(b"\n".join(lines) + b"\n")
        want = [r for r in map(_as_object, lines) if r is not None]
        torn = sum(1 for line in lines if line.strip() and _as_object(line) is None)
        before = METRICS.counter("obs.trace_lines_skipped")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert read_jsonl(path) == want
        assert METRICS.counter("obs.trace_lines_skipped") - before == torn
        assert len(caught) == torn

    def test_clean_dump_round_trips_without_warning(self, tmp_path):
        import warnings

        path = self.make_dump(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert read_jsonl(path)


class TestSelfTelemetry:
    def test_health_catalog_assigns_stable_ids(self):
        names = ["oda.bronze_rows", "oda.silver_rows"]
        cat = health_catalog(names, sample_period_s=15.0)
        assert cat.names() == names
        assert cat.id_of("oda.bronze_rows") == 0
        assert cat.spec(1).unit == "obs"

    def test_health_batch_exports_only_deterministic_meters(self):
        cat = health_catalog(["oda.bronze_rows"])
        METRICS.set_gauge("oda.bronze_rows", 128.0, deterministic=True)
        METRICS.set_gauge("wall.seconds", 0.37)  # non-deterministic
        METRICS.set_gauge("oda.unknown", 1.0, deterministic=True)  # not in cat
        batch = health_batch(METRICS, 60.0, cat)
        assert len(batch) == 1
        assert batch.values[0] == 128.0
        assert batch.timestamps[0] == 60.0
        assert batch.sensor_ids[0] == cat.id_of("oda.bronze_rows")

    def test_health_batch_empty_when_nothing_matches(self):
        cat = health_catalog(["oda.bronze_rows"])
        batch = health_batch(METRICS, 0.0, cat)
        assert len(batch) == 0

    def test_health_batch_refines_through_medallion(self):
        """The loop's core claim: a health batch is a normal observation
        batch — Bronze/Silver accept it unchanged."""
        from repro.pipeline.medallion import bronze_standardize, silver_aggregate

        cat = health_catalog(["oda.bronze_rows", "oda.gold_rows"])
        METRICS.set_gauge("oda.bronze_rows", 100.0, deterministic=True)
        METRICS.set_gauge("oda.gold_rows", 8.0, deterministic=True)
        batch = health_batch(METRICS, 30.0, cat)
        silver = silver_aggregate(bronze_standardize([batch]), cat, 15.0)
        assert silver.num_rows == 1
        assert silver["oda.bronze_rows"][0] == 100.0
        assert silver["oda.gold_rows"][0] == 8.0


def test_catalog_rejects_unknown_name_lookup():
    cat = health_catalog(["oda.bronze_rows"])
    with pytest.raises(KeyError):
        cat.id_of("oda.nope")
