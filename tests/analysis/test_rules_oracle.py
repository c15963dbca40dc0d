"""ORACLE rules: fast paths keep their reference oracles selectable."""

PAIR_WITH_TOGGLE = """
    from repro.perf import baseline

    def frob(x):
        return frob_reference(x) if baseline.active() else x

    def frob_reference(x):
        return x
    """


class TestPairWithoutToggle:
    def test_pair_without_toggle_flagged(self, rule_ids):
        assert "ORACLE001" in rule_ids(
            """
            def frob(x):
                return x
            def frob_reference(x):
                return x
            """
        )

    def test_pair_with_toggle_passes(self, rule_ids):
        assert "ORACLE001" not in rule_ids(PAIR_WITH_TOGGLE)
        assert "ORACLE001" not in rule_ids(
            """
            import repro.perf.baseline

            def frob(x):
                return frob_reference(x) if repro.perf.baseline.active() else x
            def frob_reference(x):
                return x
            """
        )

    def test_module_local_toggle_is_not_the_switch(self, rule_ids):
        # A private reference toggle is a second switch baseline_mode()
        # does not flip: the pair must read repro.perf.baseline.
        assert "ORACLE001" in rule_ids(
            """
            from contextlib import contextmanager

            _depth = 0

            @contextmanager
            def frob_reference_mode():
                yield

            def frob(x):
                return frob_reference(x) if _depth else x
            def frob_reference(x):
                return x
            """
        )

    def test_module_without_pairs_ignored(self, rule_ids):
        assert rule_ids(
            """
            def frob(x):
                return x
            """
        ) == []


class TestFastWithoutOracle:
    def test_fast_without_sibling_flagged(self, rule_ids):
        assert "ORACLE002" in rule_ids(
            """
            def quux_fast(x):
                return x
            """
        )

    def test_fast_with_reference_sibling_passes(self, rule_ids):
        assert "ORACLE002" not in rule_ids(
            """
            def quux_fast(x):
                return x
            def quux_reference(x):
                return x
            """
        )
