"""The operator CLI: python -m repro.obs report."""

import io
import json
from pathlib import Path

import pytest

from repro.obs import Tracer, span_tree, write_jsonl
from repro.obs.__main__ import main, report
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def dump(tmp_path):
    t = Tracer()
    with t.trace(seed=4, name="window", index=0):
        with t.span("refine:power", topic="power"):
            with t.span("refine.bronze"):
                pass
        with t.span("stream.produce"):
            pass
    m = MetricsRegistry()
    m.inc("records", 12, topic="power")
    m.set_gauge("lag", 3.0, topic="power")
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, tracer=t, metrics=m)
    return path


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nope.jsonl")])
    assert rc == 2
    assert "no trace dump" in capsys.readouterr().err


def test_text_report(dump):
    out = io.StringIO()
    rc = report(Path(dump), "text", depth=6, out=out)
    text = out.getvalue()
    assert rc == 0
    assert "4 spans in 1 trace(s)" in text
    assert "refine:power" in text
    assert "refine.bronze" in text  # nested under depth 6
    assert "records{topic=power}" in text


def test_depth_limits_tree(dump):
    out = io.StringIO()
    report(Path(dump), "text", depth=2, out=out)
    text = out.getvalue()
    assert "refine:power" in text
    assert "refine.bronze" not in text.split("per-span totals")[0]


def test_json_report(dump):
    out = io.StringIO()
    rc = report(Path(dump), "json", depth=6, out=out)
    assert rc == 0
    payload = json.loads(out.getvalue())
    assert set(payload) >= {"traces", "span_totals", "meters", "dropped_spans"}
    (root,) = payload["traces"]
    assert root["name"] == "window"
    assert {c["name"] for c in root["children"]} == {
        "refine:power", "stream.produce",
    }
    totals = {row["name"]: row["calls"] for row in payload["span_totals"]}
    assert totals["refine.bronze"] == 1


def test_json_traces_equal_span_tree_orphans_included(tmp_path):
    """The report assembles a dump's span lines with the exporter's own
    tree builder: its ``traces`` are ``span_tree`` of the dumped spans,
    orphans (their root dropped by the buffer bound) included."""
    t = Tracer(max_spans=3)
    with t.trace(seed=2, name="w"):
        with t.span("a", rows=4):
            with t.span("kept"):
                pass
        with t.span("b"):
            pass
    assert t.dropped == 1  # the root "w"
    path = tmp_path / "orphans.jsonl"
    write_jsonl(path, tracer=t, metrics=MetricsRegistry())
    out = io.StringIO()
    assert report(path, "json", depth=6, out=out) == 0
    traces = json.loads(out.getvalue())["traces"]
    assert traces == json.loads(json.dumps(span_tree(t.finished())))
    assert [(r["name"], r.get("orphaned")) for r in traces] == [
        ("a", True), ("b", True),
    ]
    assert [c["name"] for c in traces[0]["children"]] == ["kept"]


def test_main_runs_report(dump, capsys):
    rc = main(["report", str(dump)])
    assert rc == 0
    assert "window" in capsys.readouterr().out


def test_depth_must_be_positive(dump):
    with pytest.raises(SystemExit):
        main(["report", str(dump), "--depth", "0"])


def test_text_report_shows_stage_timers_and_volumes(tmp_path):
    """A real run's dump carries the stage times as spans and the
    per-topic volumes as meter lines, so the text report's per-span
    totals hold the ``window`` row and its meters the volumes."""
    import numpy as np

    from repro.core import ODAFramework
    from repro.telemetry import MINI, synthetic_job_mix

    allocation = synthetic_job_mix(MINI, 0.0, 90.0, np.random.default_rng(3))
    with ODAFramework(MINI, allocation, seed=3) as fw:
        fw.run(0.0, 90.0, 30.0)
    path = tmp_path / "run.jsonl"
    write_jsonl(path)
    out = io.StringIO()
    assert report(path, "text", depth=6, out=out) == 0
    text = out.getvalue()
    totals = text.split("per-span totals (hottest first)\n")[1]
    totals = totals.split("\n\n")[0]
    rows = {line.split()[0]: line for line in totals.splitlines() if line}
    assert "calls=3 " in rows["window"]
    assert "stream.produced_records" in text
