"""Tracer semantics: nesting, determinism, bounds, durations."""

import time

import pytest

from repro.obs import TRACER, Tracer


@pytest.fixture()
def tracer():
    return Tracer()


def test_span_outside_trace_is_noop(tracer):
    with tracer.span("orphan") as s:
        assert s is None
    assert tracer.finished() == []


def test_trace_roots_and_nests(tracer):
    with tracer.trace(seed=1, name="window") as root:
        assert tracer.current() is root
        with tracer.span("child", topic="power") as child:
            assert child.parent_id == root.span_id
            assert child.trace_id == root.trace_id
            assert tracer.current() is child
        assert tracer.current() is root
    assert tracer.current() is None
    names = [s.name for s in tracer.finished()]
    assert names == ["child", "window"]  # completion order


def test_span_ids_deterministic_across_runs(tracer):
    def run(t):
        with t.trace(seed=9, name="window", index=2):
            with t.span("refine:power"):
                with t.span("refine.bronze"):
                    pass
            with t.span("refine:power"):
                pass
        return [(s.name, s.span_id, s.parent_id, s.seq) for s in t.finished()]

    first = run(tracer)
    again = run(Tracer())
    assert first == again


def test_sibling_seq_disambiguates(tracer):
    with tracer.trace(seed=0, name="w"):
        with tracer.span("produce"):
            pass
        with tracer.span("produce"):
            pass
    a, b = [s for s in tracer.finished() if s.name == "produce"]
    assert (a.seq, b.seq) == (0, 1)
    assert a.span_id != b.span_id


def test_error_marks_status(tracer):
    with pytest.raises(RuntimeError):
        with tracer.trace(seed=0, name="w"):
            with tracer.span("boom"):
                raise RuntimeError("x")
    by_name = {s.name: s for s in tracer.finished()}
    assert by_name["boom"].status == "error"
    assert by_name["w"].status == "error"


def test_durations_are_block_wall_times(tracer):
    """Spans are the one time instrument: a span's ``duration_s`` is
    its block's wall time, so a child's lies within its parent's, and a
    block that raises is timed too."""
    with tracer.trace(seed=0, name="w"):
        with tracer.span("child"):
            time.sleep(0.002)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                time.sleep(0.001)
                raise RuntimeError("x")
    by_name = {s.name: s for s in tracer.finished()}
    assert by_name["child"].duration_s >= 0.002
    assert by_name["boom"].duration_s >= 0.001
    assert by_name["w"].duration_s >= (
        by_name["child"].duration_s + by_name["boom"].duration_s
    )


def test_switch_is_read_once_at_entry(tracer):
    """A span opened while the tracer is on is kept even if it is
    switched off before the span exits, and one opened while it is off
    stays unrecorded however the switch moves."""
    with tracer.trace(seed=0, name="w"):
        with tracer.span("straddle.on"):
            tracer.enabled = False
        with tracer.span("straddle.off") as off:
            assert off is None
            tracer.enabled = True
    assert [s.name for s in tracer.finished()] == ["straddle.on", "w"]


def test_attrs_and_set(tracer):
    with tracer.trace(seed=0, name="w", machine="mini") as root:
        root.set(rows=5)
    (span,) = tracer.finished()
    assert span.attrs == {"machine": "mini", "rows": 5}
    d = span.to_dict()
    assert d["kind"] == "span"
    assert list(d["attrs"]) == ["machine", "rows"]  # sorted


def test_span_or_trace_roots_or_joins(tracer):
    with tracer.span_or_trace("window", seed=1, index=0) as root:
        assert root.parent_id == ""
        with tracer.span_or_trace("window", seed=1, index=0) as inner:
            assert inner.parent_id == root.span_id


def test_disabled_tracer_is_silent(tracer):
    tracer.enabled = False
    with tracer.trace(seed=0, name="w") as s:
        assert s is None
        with tracer.span("child") as c:
            assert c is None
    assert tracer.finished() == []


def test_buffer_bound_counts_drops():
    t = Tracer(max_spans=2)
    with t.trace(seed=0, name="w"):
        for i in range(4):
            with t.span(f"s{i}"):
                pass
    # The first spans to finish are kept; every later one is counted.
    assert [s.name for s in t.finished()] == ["s0", "s1"]
    assert t.dropped == 3  # two extra children + the root
    t.reset()
    assert t.dropped == 0 and t.finished() == []


def test_reset_clears_sequence_counters(tracer):
    with tracer.trace(seed=0, name="w"):
        with tracer.span("s"):
            pass
    first = [s.span_id for s in tracer.finished()]
    tracer.reset()
    with tracer.trace(seed=0, name="w"):
        with tracer.span("s"):
            pass
    assert [s.span_id for s in tracer.finished()] == first


def test_global_tracer_exists():
    assert isinstance(TRACER, Tracer)
    assert TRACER.enabled
