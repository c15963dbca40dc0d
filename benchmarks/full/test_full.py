"""Self-test of the benchmark on ``--smoke`` shapes.

Run with ``python -m pytest benchmarks/full -q`` (tier-1 collects only
``tests/``).  Checks the benchmark against ``BENCHMARK.json`` and its
own claims: names and units, attribution, exact repeats, span nesting,
output digests, and ``compare``'s verdicts.
"""

import copy
import json
import re

import pytest

from benchmarks.full import run  # noqa: F401  (puts src/ on sys.path)
from benchmarks.full import report, spec
from benchmarks.full.measure import run_once

BENCHMARK = spec.load_benchmark()
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units of metrics that count work (seed-pure in the serial traced rep).
COUNT_UNITS = {"count", "bytes", "rows"}


@pytest.fixture(scope="module")
def runs():
    """``runs[workload][trace]``: two smoke runs of the same seed."""
    return {
        w: {
            trace: [run_once(w, 7, 0.0, bool(trace), smoke=True) for _ in range(2)]
            for trace in (0, 1)
        }
        for w in WORKLOADS
    }


@pytest.mark.parametrize("kind,trace", [("end_to_end", 0), ("per_layer", 1)])
def test_every_named_metric_is_reported_with_its_unit(runs, kind, trace):
    names = [m["name"] for m in BENCHMARK[kind]]
    assert len(set(names)) == len(names)
    for w in WORKLOADS:
        assert NAME.fullmatch(w)
        metrics = runs[w][trace][0]["metrics"]
        assert set(metrics) == set(names)
        for m in BENCHMARK[kind]:
            assert NAME.fullmatch(m["name"])
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], float)


def test_end_to_end_metrics_are_never_zero(runs):
    for w in WORKLOADS:
        for name, m in runs[w][0][0]["metrics"].items():
            assert m["value"] > 0, (w, name)


def test_outputs_are_correct_and_digests_agree(runs):
    for w in WORKLOADS:
        records = runs[w][0] + runs[w][1]
        assert all(r["correct"] and r["failed"] == 0 for r in records)
        assert len({r["digest"] for r in records}) == 1
        assert all(r["attempted"] >= 1 for r in records)


def test_traced_rep_attributes_the_wall_to_layers(runs):
    for w in WORKLOADS:
        for record in runs[w][1]:
            share = record["metrics"]["core.attributed_share"]["value"]
            assert 0.98 <= share <= 1.0, (w, share)


def test_exact_metrics_and_counts_repeat_exactly(runs):
    for w in WORKLOADS:
        a, b = runs[w][0]
        for name in ("stored_bytes_per_raw_byte", "ocean_write_amp"):
            assert a["metrics"][name]["value"] == b["metrics"][name]["value"]
        a, b = runs[w][1]
        for name, m in a["metrics"].items():
            if m["unit"] in COUNT_UNITS:
                assert m["value"] == b["metrics"][name]["value"], (w, name)


def test_spans_nest(runs):
    for w in WORKLOADS:
        spans = runs[w][1][0]["spans"]
        assert spans[0][4] == -1
        for i, (_, _, start, end, parent) in enumerate(spans[1:], start=1):
            assert 0 <= parent < i
            assert spans[parent][2] <= start <= end <= spans[parent][3]


def test_toggle_table_only_where_bare_is_the_base(runs):
    table = runs["ingest_bare"][1][0]["toggle_table"]
    assert set(table) == {"bare", *spec.TOGGLES}
    assert table["lifecycle"]["ocean_put_bytes_delta"] > 0
    assert runs["query_panel"][1][0]["toggle_table"] is None


@pytest.fixture
def suite(runs):
    modes = runs[WORKLOADS[0]][0][0]["modes"]
    return {
        "fingerprint": report.fingerprint(modes),
        "workloads": {
            w: report.suite_entry(BENCHMARK, runs[w][0], runs[w][1]) for w in WORKLOADS
        },
    }


def _write(path, suite):
    path.write_text(json.dumps(suite))
    return path


def test_compare_verdicts(suite, tmp_path, capsys):
    a = _write(tmp_path / "a.json", suite)
    assert report.compare(a, a) == 0
    assert "worse" not in capsys.readouterr().out

    slower = copy.deepcopy(suite)
    m = slower["workloads"]["ingest_bare"]["end_to_end"]["throughput_per_s"]
    m["values"] = [v / 2 for v in m["values"]]
    m.update(median=m["median"] / 2, q1=m["q1"] / 2, q3=m["q3"] / 2, spread=0.0)
    suite["workloads"]["ingest_bare"]["end_to_end"]["throughput_per_s"]["spread"] = 0.0
    a = _write(tmp_path / "a.json", suite)
    assert report.compare(a, _write(tmp_path / "b.json", slower)) == 1
    out = capsys.readouterr().out
    assert re.search(r"ingest_bare\s+throughput_per_s.*0\.500.*worse", out)

    other_host = copy.deepcopy(suite)
    other_host["fingerprint"]["modes"]["executor"] = "elsewhere"
    assert report.compare(a, _write(tmp_path / "c.json", other_host)) == 2
    assert "refusing" in capsys.readouterr().out
