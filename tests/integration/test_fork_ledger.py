"""``tools/fork_ledger.py`` on the smoke shape: every fork is seen, both
sides of every call agree, and the cache's traffic is counted."""

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_the_smoke_query_panel_ledger():
    proc = subprocess.run(
        [sys.executable, "tools/fork_ledger.py", "--workload", "query_panel"]
        + ["--smoke", "--json"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    rows = report["forks"]
    assert {r["fork"] for r in rows} == {
        "factorize", "choose_encoding", "utilization", "emit", "plan_parts",
        "execute_plan",
    }  # fmt: skip
    for r in rows:
        assert r["calls"] > 0 and r["reference_s"] > 0 and r["differ"] == 0, r
    # Object columns never reach factorize; the integer columns do.
    kinds = {r["path"] for r in rows if r["fork"] == "factorize"}
    assert "O" not in kinds and "i" in kinds
    assert {r["path"] for r in rows if r["fork"] == "utilization"} == {"hit", "miss"}
    cache = report["cache"]
    assert cache["hits"] > 0 and cache["misses"] > 0
    assert (cache["evictions"], cache["rejections"]) == (0, 0)
    assert 0 < cache["peak_bytes"] <= cache["max_bytes"]
