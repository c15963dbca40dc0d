"""CLI behaviour: suppressions, --select/--ignore, JSON schema, exit
codes — including the one-violation-per-family fixture tree."""

from __future__ import annotations

import io
import json

from repro.analysis import ALL_RULE_CLASSES
from repro.analysis.__main__ import run

#: One violation per rule family, spread over a realistic mini-tree.
VIOLATION_TREE = {
    "repro/pipeline/hot.py": """
        import time

        _cache = {}

        def stamp_and_remember(key):
            _cache[key] = time.time()      # DET001 + CONC001
            return _cache[key]

        def lookup_fast(key):              # ORACLE002
            return _cache.get(key)
        """,
    "repro/stream/transport.py": """
        def fetch(topics, topic):
            try:
                return topics[topic]
            except Exception:
                pass                       # EXC002
            raise KeyError(topic)          # EXC003
        """,
    "repro/columnar/leaky.py": """
        from repro.stream.broker import Broker   # IMP001
        """,
}

CLEAN_TREE = {
    "repro/pipeline/cold.py": """
        import threading

        _lock = threading.Lock()
        _cache = {}

        def remember(key, value):
            with _lock:
                _cache[key] = value
        """,
}


def run_cli(*argv):
    out = io.StringIO()
    code = run(list(argv), stdout=out)
    return code, out.getvalue()


class TestExitCodes:
    def test_clean_tree_exits_zero(self, make_tree):
        root = make_tree(CLEAN_TREE)
        code, out = run_cli(str(root))
        assert code == 0
        assert "clean" in out

    def test_violation_tree_exits_nonzero_with_all_families(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        code, out = run_cli("--format", "json", str(root))
        assert code == 1
        payload = json.loads(out)
        families = {f["rule"].rstrip("0123456789") for f in payload["findings"]}
        assert {"DET", "CONC", "ORACLE", "EXC", "IMP"} <= families

    def test_empty_rule_selection_is_usage_error(self, make_tree):
        root = make_tree(CLEAN_TREE)
        code, _ = run_cli("--select", "DET", "--ignore", "DET", str(root))
        assert code == 2
        # A family that no longer exists selects nothing: same error.
        code, _ = run_cli("--select", "RACE", str(root))
        assert code == 2


class TestSelectIgnore:
    def test_select_family_limits_findings(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        code, out = run_cli("--format", "json", "--select", "DET", str(root))
        assert code == 1
        payload = json.loads(out)
        assert payload["rules"] == ["DET001", "DET002", "DET010"]
        assert {f["rule"] for f in payload["findings"]} == {"DET001"}

    def test_select_single_id(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        _, out = run_cli("--format", "json", "--select", "EXC003", str(root))
        payload = json.loads(out)
        assert payload["rules"] == ["EXC003"]
        assert {f["rule"] for f in payload["findings"]} == {"EXC003"}

    def test_ignore_family_removes_findings(self, make_tree):
        root = make_tree(
            {
                "repro/pipeline/hot.py": """
                import time

                def stamp():
                    return time.time()
                """
            }
        )
        code, out = run_cli("--format", "json", "--ignore", "DET", str(root))
        assert code == 0
        payload = json.loads(out)
        assert payload["findings"] == []
        assert "DET001" not in payload["rules"]


class TestSuppression:
    def test_pragma_suppresses_matching_rule(self, make_tree):
        root = make_tree(
            {
                "repro/pipeline/hot.py": """
                import time

                def stamp():
                    # wall clock is the payload here, not data
                    return time.time()  # repro: ignore[DET001] -- bench label only
                """
            }
        )
        code, out = run_cli("--format", "json", str(root))
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["suppressed"] == 1
        assert payload["findings"][0]["suppressed"] is True

    def test_family_pragma_suppresses_all_ids_in_family(self, make_tree):
        root = make_tree(
            {
                "repro/pipeline/hot.py": """
                _cache = {}

                def put(k, v):
                    _cache[k] = v  # repro: ignore[CONC] -- single-threaded fixture
                """
            }
        )
        code, _ = run_cli(str(root))
        assert code == 0

    def test_pragma_for_other_rule_does_not_suppress(self, make_tree):
        root = make_tree(
            {
                "repro/pipeline/hot.py": """
                import time

                def stamp():
                    return time.time()  # repro: ignore[EXC001] -- wrong id
                """
            }
        )
        code, _ = run_cli(str(root))
        assert code == 1

    def test_pragma_inside_string_literal_ignored(self, make_tree):
        root = make_tree(
            {
                "repro/pipeline/hot.py": """
                import time

                def stamp():
                    label = "# repro: ignore[DET001]"
                    return time.time(), label
                """
            }
        )
        code, _ = run_cli(str(root))
        assert code == 1


class TestJsonSchema:
    def test_schema_fields(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        _, out = run_cli("--format", "json", str(root))
        payload = json.loads(out)
        assert payload["version"] == 3
        assert set(payload["counts"]) == {
            "total",
            "suppressed",
            "errors",
            "warnings",
        }
        for finding in payload["findings"]:
            assert set(finding) == {
                "file",
                "line",
                "rule",
                "rule_family",
                "severity",
                "message",
                "suppressed",
            }
            assert finding["severity"] in ("error", "warning")
            assert isinstance(finding["line"], int) and finding["line"] >= 1
            assert finding["rule"].startswith(finding["rule_family"])

    def test_counts_are_consistent(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        _, out = run_cli("--format", "json", str(root))
        payload = json.loads(out)
        counts = payload["counts"]
        active = [f for f in payload["findings"] if not f["suppressed"]]
        assert counts["total"] == len(payload["findings"])
        assert counts["suppressed"] == counts["total"] - len(active)
        assert counts["errors"] + counts["warnings"] == len(active)


class TestExplain:
    def test_explain_toggle_rule(self):
        code, out = run_cli("--explain", "CONC003")
        assert code == 0
        assert "CONC003" in out
        assert "depth counter" in out

    def test_explain_det010(self):
        code, out = run_cli("--explain", "DET010")
        assert code == 0
        assert "seed" in out.lower()

    def test_explain_shows_suppression_hint(self):
        _, out = run_cli("--explain", "CONC003")
        assert "repro: ignore[CONC003]" in out

    def test_explain_unknown_rule_is_usage_error(self):
        code, _ = run_cli("--explain", "NOPE999")
        assert code == 2


class TestTextOutput:
    def test_text_lines_have_location_and_rule(self, make_tree):
        root = make_tree(VIOLATION_TREE)
        code, out = run_cli("--select", "EXC", str(root))
        assert code == 1
        line = out.splitlines()[0]
        assert "transport.py" in line and "EXC" in line and "error" in line

    def test_list_rules(self):
        code, out = run_cli("--list-rules")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            cls.id for cls in ALL_RULE_CLASSES
        ]
        assert len(ALL_RULE_CLASSES) == 13 and "RACE" not in out
