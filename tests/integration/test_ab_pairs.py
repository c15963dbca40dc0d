"""``tools/ab_pairs.py`` on canned results: no benchmark run, no clock."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "ab_pairs", REPO_ROOT / "tools" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

METRICS = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower"},
    {"name": "ocean_write_amp", "unit": "ratio", "better": "lower"},
]


def result(throughput, rss, correct=True):
    values = dict(zip((m["name"] for m in METRICS), (throughput, rss, 2.1582)))
    return {
        "correct": correct,
        "attempted": 100,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": ""} for k, v in values.items()},
    }


def test_medians_quartiles_wins_and_the_changes_row():
    a = [result(1000.0, 483.3), result(1010.0, 502.0), result(990.0, 535.3)]
    b = [result(1100.0, 365.1), result(1010.0, 364.5), result(980.0, 364.2)]
    lines, ok = ab_pairs.summarize(METRICS, "query_panel (7, 3)", a, b)
    assert ok
    text = "\n".join(lines)
    assert "  A: 483.3 502 535.3  median 502 [492.65, 518.65]" in text
    assert "  B: 365.1 364.5 364.2  median 364.5 [364.35, 364.8]" in text
    # Higher is better for throughput: one win, one tie, one loss.
    assert lines[lines.index("throughput_per_s (1/s, higher is better)") + 3] == (
        "  change wins 1/3"
    )
    assert lines[-1] == (
        "| query_panel (7, 3) | 1000 → 1010 (1/3) | 502 → 364.5 (3/3) | 2.1582 = |"
    )
    assert lines[-3] == (
        "| workload (seed, pairs) | throughput_per_s | peak_rss_mb | ocean_write_amp |"
    )


def checkouts(tmp_path):
    """Two directories, the parent's with a ``BENCHMARK.json``."""
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS})
    )
    return [str(tmp_path / "a"), str(tmp_path / "b")]


def test_an_incorrect_run_fails_the_comparison(monkeypatch, tmp_path, capsys):
    canned = iter([result(1.0, 2.0), result(1.0, 2.0, correct=False)])
    monkeypatch.setattr(ab_pairs, "run_once", lambda *a: next(canned))
    argv = checkouts(tmp_path) + ["--workload", "w", "--pairs", "1"]
    assert ab_pairs.main(argv) == 1
    assert "correct on every run: False" in capsys.readouterr().out


def test_sides_alternate_which_goes_first(monkeypatch, tmp_path):
    order = []
    monkeypatch.setattr(
        ab_pairs,
        "run_once",
        lambda checkout, workload, seed: order.append(checkout.name)
        or result(1.0, 2.0),
    )
    argv = checkouts(tmp_path) + ["--workload", "w", "--pairs", "3"]
    assert ab_pairs.main(argv) == 0
    assert order == ["a", "b", "b", "a", "a", "b"]
