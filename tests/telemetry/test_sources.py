"""Cross-source contract tests plus per-source behaviour tests.

The two contracts every source must satisfy (see sources.py):
split-invariance and determinism under the same seed.
"""

import numpy as np
import pytest

from repro.telemetry import (
    FacilitySource,
    InterconnectSource,
    MINI,
    ObservationBatch,
    PerfCounterSource,
    PowerThermalSource,
    StorageIOSource,
    SyslogSource,
    synthetic_job_mix,
)


@pytest.fixture(scope="module")
def allocation():
    return synthetic_job_mix(MINI, 0.0, 3600.0, np.random.default_rng(42))


def _flat_power(times):
    return np.full(np.asarray(times).size, 1e6)


def make_sources(allocation, seed=0):
    return [
        PowerThermalSource(MINI, allocation, seed),
        SyslogSource(MINI, seed),
        StorageIOSource(MINI, allocation, seed),
        InterconnectSource(MINI, allocation, seed),
        FacilitySource(MINI, _flat_power, seed),
        PerfCounterSource(MINI, allocation, seed),
    ]


class TestSourceContracts:
    @pytest.mark.parametrize("idx", range(6))
    def test_split_invariance(self, allocation, idx):
        """emit([0,60)) == concat(emit([0,15)) .. emit([45,60)))."""
        whole_src = make_sources(allocation)[idx]
        split_src = make_sources(allocation)[idx]
        whole = whole_src.emit(0.0, 60.0)
        parts = type(whole).concat(
            [split_src.emit(t, t + 15.0) for t in (0.0, 15.0, 30.0, 45.0)]
        ).sorted_by_time()
        whole = whole.sorted_by_time()
        assert len(whole) == len(parts)
        np.testing.assert_allclose(whole.timestamps, parts.timestamps)
        # Values (or event payloads) must match too, not just times.
        if hasattr(whole, "values"):
            order_w = np.lexsort(
                (whole.sensor_ids, whole.component_ids, whole.timestamps)
            )
            order_p = np.lexsort(
                (parts.sensor_ids, parts.component_ids, parts.timestamps)
            )
            np.testing.assert_allclose(
                whole.values[order_w], parts.values[order_p]
            )
        else:
            np.testing.assert_array_equal(
                np.sort(whole.message_ids), np.sort(parts.message_ids)
            )

    @pytest.mark.parametrize("idx", range(6))
    def test_deterministic_under_seed(self, allocation, idx):
        a = make_sources(allocation, seed=5)[idx].emit(0.0, 30.0)
        b = make_sources(allocation, seed=5)[idx].emit(0.0, 30.0)
        np.testing.assert_array_equal(a.timestamps, b.timestamps)

    @pytest.mark.parametrize("idx", range(6))
    def test_different_seed_changes_stream(self, allocation, idx):
        a = make_sources(allocation, seed=1)[idx].emit(0.0, 30.0)
        b = make_sources(allocation, seed=2)[idx].emit(0.0, 30.0)
        same_len = len(a) == len(b)
        if same_len and len(a) > 0 and hasattr(a, "values"):
            assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("idx", range(6))
    def test_empty_window(self, allocation, idx):
        src = make_sources(allocation)[idx]
        assert len(src.emit(10.0, 10.0)) == 0

    @pytest.mark.parametrize("idx", range(6))
    def test_invalid_window_rejected(self, allocation, idx):
        src = make_sources(allocation)[idx]
        with pytest.raises(ValueError):
            src.emit(10.0, 5.0)

    @pytest.mark.parametrize("idx", range(6))
    def test_timestamps_within_window(self, allocation, idx):
        batch = make_sources(allocation)[idx].emit(30.0, 90.0)
        if len(batch):
            assert batch.timestamps.min() >= 30.0
            assert batch.timestamps.max() < 90.0

    @pytest.mark.parametrize("idx", range(6))
    def test_nominal_volume_positive(self, allocation, idx):
        assert make_sources(allocation)[idx].nominal_bytes_per_day() > 0


#: The five per-node sources, each as ``factory(allocation, nodes)``.
NODE_SOURCES = {
    "power": lambda a, nodes: PowerThermalSource(MINI, a, 0, nodes),
    "perf": lambda a, nodes: PerfCounterSource(MINI, a, 0, nodes),
    "storage_io": lambda a, nodes: StorageIOSource(MINI, a, 0, nodes),
    "interconnect": lambda a, nodes: InterconnectSource(MINI, a, 0, nodes),
    "syslog": lambda a, nodes: SyslogSource(MINI, 0, nodes),
}


class TestNodeSubset:
    @pytest.mark.parametrize("name", sorted(NODE_SOURCES))
    @pytest.mark.parametrize(
        "nodes",
        [[-1, MINI.n_nodes, 99], [MINI.n_nodes], [-1], [0, 0], [3, 1, 3],
         [[0, 1]]],
        ids=["out-of-range", "one-past", "negative", "repeated",
             "repeated-unsorted", "2-d"],
    )
    def test_invalid_subset_rejected(self, allocation, name, nodes):
        with pytest.raises(ValueError):
            NODE_SOURCES[name](allocation, np.array(nodes))

    @pytest.mark.parametrize("name", sorted(NODE_SOURCES))
    def test_subset_emits_only_its_nodes(self, allocation, name):
        src = NODE_SOURCES[name](allocation, np.array([5, 2]))
        assert src.nodes.tolist() == [5, 2]
        batch = src.emit(0.0, 120.0)
        assert len(batch) > 0
        assert set(np.unique(batch.component_ids)) <= {2, 5}
        assert src.fleet_bytes_per_day() == pytest.approx(
            src.nominal_bytes_per_day() * MINI.n_nodes / 2
        )

    @pytest.mark.parametrize("name", sorted(NODE_SOURCES))
    def test_default_and_empty_subsets(self, allocation, name):
        whole = NODE_SOURCES[name](allocation, None)
        assert whole.nodes.tolist() == list(range(MINI.n_nodes))
        assert whole.fleet_bytes_per_day() == whole.nominal_bytes_per_day()
        empty = NODE_SOURCES[name](allocation, np.array([], dtype=np.int32))
        assert len(empty.emit(0.0, 60.0)) == 0
        assert empty.fleet_bytes_per_day() == 0.0


class TestPowerThermalSource:
    def test_idle_node_near_idle_power(self, allocation):
        src = PowerThermalSource(MINI, allocation, seed=0)
        # Find a (node, time) that is idle.
        times = src.sample_times(0.0, 60.0)
        _, _, jid = allocation.utilization(src.nodes, times)
        idle_cells = np.argwhere(jid == -1)
        if idle_cells.size == 0:
            pytest.skip("no idle cells in this mix")
        _, power = src.node_power_matrix(0.0, 60.0)
        r, c = idle_cells[0]
        assert power[r, c] == pytest.approx(
            MINI.node_idle_w / 0.92, rel=0.15
        )

    def test_power_under_node_max(self, allocation):
        src = PowerThermalSource(MINI, allocation, seed=0)
        batch = src.emit(0.0, 120.0)
        pw = batch.select_sensor(src.catalog.id_of("input_power"))
        assert pw.values.max() <= MINI.node_max_w

    def test_loss_rate_drops_samples(self, allocation):
        lossless = PowerThermalSource(MINI, allocation, seed=0, loss_rate=0.0)
        lossy = PowerThermalSource(MINI, allocation, seed=0, loss_rate=0.3)
        n0 = len(lossless.emit(0.0, 120.0))
        n1 = len(lossy.emit(0.0, 120.0))
        assert n1 < n0
        assert n1 / n0 == pytest.approx(0.7, abs=0.05)

    def test_node_subset(self, allocation):
        src = PowerThermalSource(MINI, allocation, nodes=np.array([0, 1]))
        batch = src.emit(0.0, 30.0)
        assert set(np.unique(batch.component_ids)) <= {0, 1}

    def test_fleet_extrapolation_scales(self, allocation):
        sub = PowerThermalSource(MINI, allocation, nodes=np.array([0, 1]))
        assert sub.fleet_bytes_per_day() == pytest.approx(
            sub.nominal_bytes_per_day() * MINI.n_nodes / 2
        )

    def test_temps_above_coolant_supply(self, allocation):
        src = PowerThermalSource(MINI, allocation, seed=0)
        batch = src.emit(0.0, 60.0)
        temps = batch.select_sensor(src.catalog.id_of("gpu0_temp"))
        assert temps.values.mean() > MINI.coolant_supply_c

    def test_catalog_has_per_gpu_channels(self, allocation):
        src = PowerThermalSource(MINI, allocation)
        for g in range(MINI.gpus_per_node):
            assert f"gpu{g}_power" in src.catalog
            assert f"gpu{g}_temp" in src.catalog


class TestSyslogSource:
    def test_severity_distribution_skewed_low(self):
        src = SyslogSource(MINI, seed=0)
        batch = src.emit(0.0, 7200.0)
        assert len(batch) > 50
        frac_error_up = (batch.severities >= 3).mean()
        assert frac_error_up < 0.2

    def test_rate_roughly_matches_base_rate(self):
        src = SyslogSource(MINI, seed=3, base_rate=0.05, burst_prob=0.0)
        batch = src.emit(0.0, 3600.0)
        expected = 0.05 * MINI.n_nodes * 3600.0
        assert len(batch) == pytest.approx(expected, rel=0.2)

    def test_bursts_raise_volume(self):
        quiet = SyslogSource(MINI, seed=1, burst_prob=0.0)
        bursty = SyslogSource(MINI, seed=1, burst_prob=0.3, burst_factor=15.0)
        assert len(bursty.emit(0, 3600.0)) > 2 * len(quiet.emit(0, 3600.0))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            SyslogSource(MINI, base_rate=0.2, burst_factor=20.0)

    def test_message_ids_match_severity_class(self):
        from repro.telemetry.syslog import TEMPLATE_SEVERITIES

        batch = SyslogSource(MINI, seed=2).emit(0.0, 3600.0)
        np.testing.assert_array_equal(
            TEMPLATE_SEVERITIES[batch.message_ids], batch.severities
        )

    def test_render_produces_lines(self):
        src = SyslogSource(MINI, seed=0)
        batch = src.emit(0.0, 600.0)
        lines = batch.render(src.templates, limit=3)
        assert len(lines) == min(3, len(batch))


class TestStorageIOSource:
    def test_io_follows_job_intensity(self, allocation):
        src = StorageIOSource(MINI, allocation, seed=0, loss_rate=0.0)
        batch = src.emit(0.0, 1800.0)
        read = batch.select_sensor(src.catalog.id_of("fs_read_bps"))
        assert read.values.max() > 0

    def test_nonnegative_counters(self, allocation):
        batch = StorageIOSource(MINI, allocation, seed=0).emit(0.0, 600.0)
        assert (batch.values >= 0).all()


class TestInterconnectSource:
    def test_stall_fraction_bounded(self, allocation):
        src = InterconnectSource(MINI, allocation, seed=0)
        batch = src.emit(0.0, 600.0)
        stall = batch.select_sensor(src.catalog.id_of("nic_stall_frac"))
        assert ((stall.values >= 0) & (stall.values <= 1)).all()

    def test_bandwidth_under_nic_limit(self, allocation):
        from repro.telemetry.interconnect import NIC_BPS

        src = InterconnectSource(MINI, allocation, seed=0)
        batch = src.emit(0.0, 600.0)
        tx = batch.select_sensor(src.catalog.id_of("nic_tx_bps"))
        assert tx.values.max() <= NIC_BPS


class TestFacilitySource:
    def test_return_warmer_than_supply(self):
        src = FacilitySource(MINI, _flat_power, seed=0)
        state = src.plant_state(src.sample_times(0.0, 600.0))
        assert (
            state["return_temp_c"].mean() > state["supply_temp_c"].mean()
        )

    def test_energy_balance(self):
        """Q = m_dot * c_p * dT must hold (within sensor noise)."""
        from repro.telemetry.facility import WATER_HEAT_CAPACITY

        src = FacilitySource(MINI, _flat_power, seed=0)
        state = src.plant_state(src.sample_times(0.0, 600.0))
        q = (
            state["flow_kg_s"]
            * WATER_HEAT_CAPACITY
            * (state["return_temp_c"] - state["supply_temp_c"])
        )
        assert q.mean() == pytest.approx(1e6, rel=0.1)

    def test_pump_power_increases_with_load(self):
        lo = FacilitySource(
            MINI,
            lambda t: np.full(np.asarray(t).size, 0.05 * MINI.peak_it_power_w),
            0,
        )
        hi = FacilitySource(
            MINI, lambda t: np.full(np.asarray(t).size, MINI.peak_it_power_w), 0
        )
        t = lo.sample_times(0.0, 600.0)
        assert (
            hi.plant_state(t)["pump_power_w"].mean()
            > lo.plant_state(t)["pump_power_w"].mean()
        )

    def test_outdoor_temperature_diurnal(self):
        src = FacilitySource(MINI, _flat_power, 0)
        t = np.array([0.0, 21_600.0, 43_200.0, 64_800.0])
        temps = src.outdoor_temp(t)
        assert temps.max() - temps.min() > 5.0
