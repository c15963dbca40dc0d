"""DET rules: wall clock, unseeded RNG and seeds of unknown provenance
are banned in the data plane."""


class TestWallClock:
    def test_time_time_flagged(self, rule_ids):
        assert "DET001" in rule_ids(
            """
            import time
            def stamp():
                return time.time()
            """
        )

    def test_datetime_now_flagged_via_from_import(self, rule_ids):
        assert "DET001" in rule_ids(
            """
            from datetime import datetime
            def stamp():
                return datetime.now()
            """
        )

    def test_perf_counter_allowed(self, rule_ids):
        # Monotonic duration timers feed the perf registry, never data.
        assert rule_ids(
            """
            import time
            def timed():
                t0 = time.perf_counter()
                return time.perf_counter() - t0
            """
        ) == []

    def test_only_data_plane_packages_checked(self, rule_ids):
        source = """
            import time
            def stamp():
                return time.time()
            """
        assert rule_ids(source, module="repro.apps.fixture") == []
        assert "DET001" in rule_ids(source, module="repro.stream.fixture")
        assert "DET001" in rule_ids(source, module="repro.core.fixture")
        # The synthetic ground truth is data plane too (data-plane v2):
        # a wall clock in an emitter breaks split invariance.
        assert "DET001" in rule_ids(source, module="repro.telemetry.fixture")
        assert "DET001" in rule_ids(source, module="repro.util.fixture")


class TestUnseededRandom:
    def test_np_random_legacy_api_flagged(self, rule_ids):
        assert "DET002" in rule_ids(
            """
            import numpy as np
            def draw():
                return np.random.rand(4)
            """
        )

    def test_default_rng_without_seed_flagged(self, rule_ids):
        assert "DET002" in rule_ids(
            """
            import numpy as np
            def draw():
                return np.random.default_rng().random()
            """
        )

    def test_default_rng_with_seed_allowed(self, rule_ids):
        assert rule_ids(
            """
            import numpy as np
            def draw():
                return np.random.default_rng(42).random()
            """
        ) == []

    def test_stdlib_random_flagged(self, rule_ids):
        assert "DET002" in rule_ids(
            """
            import random
            def draw():
                return random.random()
            """
        )

    def test_seeded_random_instance_allowed(self, rule_ids):
        assert rule_ids(
            """
            import random
            def draw():
                return random.Random(7).random()
            """
        ) == []

    def test_rng_allowlist_module_exempt(self, rule_ids):
        # repro.util.rng and repro.perf may touch RNG/clock machinery.
        source = """
            import numpy as np
            def draw():
                return np.random.default_rng()
            """
        assert rule_ids(source, module="repro.perf.fixture") == []


class TestSeedTaint:
    """DET010 — the local seed lattice."""

    def test_rng_from_config_count_flagged(self, check):
        findings = check(
            """
            import numpy as np

            def build(config):
                return np.random.default_rng(config.node_count)
            """
        )
        det = [f for f in findings if f.rule_id == "DET010"]
        assert len(det) == 1

    def test_rng_from_seed_param_clean(self, rule_ids):
        ids = rule_ids(
            """
            import numpy as np

            def build(seed):
                return np.random.default_rng(seed)
            """
        )
        assert "DET010" not in ids

    def test_rng_from_derive_seed_clean(self, rule_ids):
        ids = rule_ids(
            """
            import numpy as np

            from repro.util.rng import derive_seed

            def build(root_seed, name):
                return np.random.default_rng(derive_seed(root_seed, name))
            """
        )
        assert "DET010" not in ids

    def test_seed_through_unlisted_helper_flagged(self, rule_ids):
        # The lattice is local: the return value of a call is trusted
        # only when the callee is a listed seed source.  A helper that
        # derives seeds belongs in SEED_SOURCE_FUNCTIONS.
        ids = rule_ids(
            """
            import numpy as np

            def child_seed(seed):
                return seed * 2 + 1

            def build(seed):
                return np.random.default_rng(child_seed(seed))
            """
        )
        assert "DET010" in ids

    def test_seed_local_assigned_before_use_clean(self, rule_ids):
        ids = rule_ids(
            """
            import numpy as np

            def build(seed, shard):
                child = seed * 2 + 1
                return np.random.default_rng((child, int(f"{seed}")))
            """
        )
        assert "DET010" not in ids

    def test_mixing_seed_with_unknown_data_flagged(self, rule_ids):
        # The lattice is conservative: combining a seed with a value of
        # unknown provenance yields unknown, not seed.
        ids = rule_ids(
            """
            import numpy as np

            def build(seed, config):
                return np.random.default_rng(seed + config.node_count)
            """
        )
        assert "DET010" in ids

    def test_untainted_helper_return_flagged(self, rule_ids):
        ids = rule_ids(
            """
            import numpy as np

            def pick():
                return 1234

            def scale(config):
                return config.width * 2

            def build(config):
                return np.random.default_rng(scale(config))
            """
        )
        assert "DET010" in ids

    def test_allowlisted_module_exempt(self, rule_ids):
        ids = rule_ids(
            """
            import numpy as np

            def build(config):
                return np.random.default_rng(config.node_count)
            """,
            module="repro.util.rng",
        )
        assert "DET010" not in ids
