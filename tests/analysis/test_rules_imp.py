"""IMP rules: the hourglass layering is mechanical, not aspirational."""


class TestLayerViolation:
    def test_telemetry_must_not_import_storage(self, rule_ids):
        assert "IMP001" in rule_ids(
            "from repro.storage.lake import TimeSeriesLake\n",
            module="repro.telemetry.fixture",
        )

    def test_telemetry_must_not_import_apps(self, rule_ids):
        assert "IMP001" in rule_ids(
            "import repro.apps.lva\n",
            module="repro.telemetry.fixture",
        )

    def test_columnar_must_not_import_stream(self, rule_ids):
        assert "IMP001" in rule_ids(
            "from repro.stream.broker import Broker\n",
            module="repro.columnar.fixture",
        )

    def test_telemetry_may_import_columnar(self, rule_ids):
        # telemetry emits ColumnTable batches — a sanctioned down edge.
        assert rule_ids(
            "from repro.columnar.table import ColumnTable\n",
            module="repro.telemetry.fixture",
        ) == []

    def test_everyone_may_import_util_and_perf(self, rule_ids):
        assert rule_ids(
            """
            from repro.perf import baseline_mode
            from repro.util.rng import RngStreams
            """,
            module="repro.stream.fixture",
        ) == []

    def test_core_may_import_everything(self, rule_ids):
        assert rule_ids(
            """
            from repro.apps.lva import LiveVisualAnalytics
            from repro.stream.broker import Broker
            from repro.twin.power import PowerSimulator
            """,
            module="repro.core.fixture",
        ) == []

    def test_relative_import_resolved(self, rule_ids):
        # `from ..storage import lake` inside telemetry resolves to
        # repro.storage and violates the layering just like an absolute
        # import would.
        assert "IMP001" in rule_ids(
            "from ..storage import lake\n",
            module="repro.telemetry.fixture",
        )

    def test_relative_sibling_import_passes(self, rule_ids):
        assert rule_ids(
            "from .jobs import AllocationTable\n",
            module="repro.telemetry.fixture",
        ) == []

    def test_from_repro_root_subpackage_checked(self, rule_ids):
        # `from repro import storage` names a subpackage, not a facade
        # symbol, and is held to the same policy.
        assert "IMP001" in rule_ids(
            "from repro import storage\n",
            module="repro.telemetry.fixture",
        )

    def test_non_repro_imports_ignored(self, rule_ids):
        assert rule_ids(
            """
            import os
            import numpy as np
            from collections import OrderedDict
            """,
            module="repro.telemetry.fixture",
        ) == []
