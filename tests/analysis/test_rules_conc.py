"""CONC rules: module-level mutable state must be lock-guarded.

The negative cases mirror the PR-1 memo modules (``factorize``,
``encodings``, ``compression``, ``file_format``); the repo-level
guarantee that those real modules stay clean is ``test_repo_clean``.
"""

LOCKED = """
    import threading
    from collections import OrderedDict

    _lock = threading.Lock()
    _cache = OrderedDict()

    def put(key, value):
        with _lock:
            _cache[key] = value
            while len(_cache) > 4:
                _cache.popitem(last=False)

    def stats():
        with _lock:
            return len(_cache)
    """


class TestUnlockedWrite:
    def test_locked_mutation_passes(self, rule_ids):
        assert rule_ids(LOCKED) == []

    def test_unlocked_item_assignment_flagged(self, rule_ids):
        assert "CONC001" in rule_ids(
            """
            _cache = {}
            def put(key, value):
                _cache[key] = value
            """
        )

    def test_unlocked_mutator_method_flagged(self, rule_ids):
        assert "CONC001" in rule_ids(
            """
            _pending = []
            def enqueue(item):
                _pending.append(item)
            """
        )

    def test_unlocked_global_rebind_flagged(self, rule_ids):
        assert "CONC001" in rule_ids(
            """
            _cache = {}
            def reset():
                global _cache
                _cache = {}
            """
        )

    def test_local_shadow_not_flagged(self, rule_ids):
        # Assigning a local of the same name is not a shared-state write.
        assert rule_ids(
            """
            _cache = {}
            def compute():
                _cache = {}
                _cache["x"] = 1
                return _cache
            """
        ) == []

    def test_scalar_module_state_not_flagged(self, rule_ids):
        # Plain flags/counters are not containers; flipping them is the
        # documented single-writer toggle pattern (baseline_mode).
        assert rule_ids(
            """
            _enabled = True
            def toggle(value):
                global _enabled
                _enabled = value
            """
        ) == []

    def test_wrong_lock_scope_still_flagged(self, rule_ids):
        # A `with` on something that is not a module-level Lock does not
        # count as holding the lock.
        assert "CONC001" in rule_ids(
            """
            import threading
            _cache = {}
            def put(key, value):
                with open("f") as fh:
                    _cache[key] = value
            """
        )


class TestUnlockedRead:
    def test_unlocked_read_of_guarded_container_warns(self, rule_ids):
        ids = rule_ids(
            LOCKED
            + """
    def peek(key):
        return _cache.get(key)
    """
        )
        assert "CONC002" in ids

    def test_reads_of_unguarded_readonly_table_pass(self, rule_ids):
        # Read-only module dicts (codec tables, encoders) never take a
        # lock and are never written from functions: no findings.
        assert rule_ids(
            """
            _NAMES = {0: "plain", 1: "rle"}
            def name(code):
                return _NAMES[code]
            """
        ) == []


class TestUnlockedToggle:
    """CONC003 — the PR-7 toggle fixtures, verdicts as RACE003 gave them."""

    def test_save_restore_toggle_flagged(self, check):
        findings = check(
            """
            from contextlib import contextmanager

            _memo_enabled = True

            @contextmanager
            def memo_disabled():
                global _memo_enabled
                prev = _memo_enabled
                _memo_enabled = False
                try:
                    yield
                finally:
                    _memo_enabled = prev
            """
        )
        toggles = [f for f in findings if f.rule_id == "CONC003"]
        # Both rebinds, not the read in between.
        assert [f.line for f in toggles] == [10, 14]
        assert "_memo_enabled" in toggles[0].message
        assert [f.rule_id for f in findings] == ["CONC003", "CONC003"]

    def test_depth_counter_toggle_is_clean(self, rule_ids):
        ids = rule_ids(
            """
            import threading
            from contextlib import contextmanager

            _lock = threading.Lock()
            _memo_enabled = True
            _disable_depth = 0

            @contextmanager
            def memo_disabled():
                global _disable_depth, _memo_enabled
                with _lock:
                    _disable_depth += 1
                    _memo_enabled = False
                try:
                    yield
                finally:
                    with _lock:
                        _disable_depth -= 1
                        _memo_enabled = _disable_depth == 0
            """
        )
        assert "CONC003" not in ids

    def test_non_toggle_contextmanager_not_flagged(self, rule_ids):
        ids = rule_ids(
            """
            from contextlib import contextmanager

            @contextmanager
            def open_session():
                session = object()
                try:
                    yield session
                finally:
                    del session
            """
        )
        assert "CONC003" not in ids
