"""Facility (central energy plant) telemetry.

The "Facility" row of Fig. 3 and the right panel of Fig. 8: the cooling
plant reports supply/return water temperatures, flow, pump and tower
powers, and outdoor conditions at a 10-second cadence.  The plant responds
to total IT load — supplied as a callable so the source composes with
either live fleet power or a replayed trace (the ExaDigiT coupling in
Fig. 11).

The steady-state plant model used for the *telemetry* stream is simple
(energy balance + affine device curves); the digital twin
(:mod:`repro.twin.cooling`) carries the transient thermo-fluidic model.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.telemetry.machine import MachineConfig
from repro.telemetry.schema import (
    RAW_OBSERVATION_BYTES,
    ObservationBatch,
    SensorCatalog,
    SensorSpec,
)
from repro.telemetry.sources import TelemetrySource, sample_grid
from repro.util.noise import normal_from_index

__all__ = ["FacilitySource", "WATER_HEAT_CAPACITY"]

SAMPLE_PERIOD_S = 10.0
#: J/(kg*K) specific heat of water.
WATER_HEAT_CAPACITY = 4186.0
#: Design flow: kg/s of facility water per MW of design IT load.
FLOW_KG_S_PER_MW = 30.0
#: Pump power as a fraction of design IT power at full flow (cubic law).
PUMP_FRACTION = 0.015
#: Cooling-tower fan power fraction at design heat rejection.
TOWER_FRACTION = 0.01


class FacilitySource(TelemetrySource):
    """Deterministic cooling-plant sensor stream driven by IT power.

    Parameters
    ----------
    it_power_w:
        Callable mapping an array of times to total IT power (watts).
    """

    name = "facility"

    def __init__(
        self,
        machine: MachineConfig,
        it_power_w: Callable[[np.ndarray], np.ndarray],
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.it_power_w = it_power_w
        self.seed = int(seed)
        self._catalog = SensorCatalog(
            [
                SensorSpec("supply_temp_c", "degC", SAMPLE_PERIOD_S, "plant",
                           "facility water supply temperature"),
                SensorSpec("return_temp_c", "degC", SAMPLE_PERIOD_S, "plant",
                           "facility water return temperature"),
                SensorSpec("flow_kg_s", "kg/s", SAMPLE_PERIOD_S, "plant",
                           "facility water mass flow"),
                SensorSpec("pump_power_w", "W", SAMPLE_PERIOD_S, "plant",
                           "circulation pump electrical power"),
                SensorSpec("tower_power_w", "W", SAMPLE_PERIOD_S, "plant",
                           "cooling tower fan electrical power"),
                SensorSpec("outdoor_temp_c", "degC", SAMPLE_PERIOD_S, "plant",
                           "outdoor dry-bulb temperature"),
                SensorSpec("it_power_w", "W", SAMPLE_PERIOD_S, "plant",
                           "total IT electrical power (metered)"),
            ]
        )

    def sample_times(self, t0: float, t1: float) -> np.ndarray:
        """The absolute sample grid falling in ``[t0, t1)``."""
        return sample_grid(t0, t1, SAMPLE_PERIOD_S)

    def outdoor_temp(self, times: np.ndarray) -> np.ndarray:
        """Diurnal outdoor temperature (deterministic, smooth)."""
        day_phase = 2 * np.pi * (np.asarray(times) % 86_400.0) / 86_400.0
        return 18.0 + 8.0 * np.sin(day_phase - np.pi / 2)

    def plant_state(self, times: np.ndarray) -> dict[str, np.ndarray]:
        """All plant channels on a time grid (noise-free physics + noise)."""
        times = np.asarray(times, dtype=np.float64)
        it_w = np.asarray(self.it_power_w(times), dtype=np.float64)
        design_w = self.machine.peak_it_power_w
        design_mw = design_w / 1e6

        # Flow modulates with load between 40% and 100% of design flow.
        load_frac = np.clip(it_w / max(design_w, 1.0), 0.0, 1.2)
        flow = FLOW_KG_S_PER_MW * design_mw * np.clip(0.4 + 0.6 * load_frac, 0.4, 1.0)
        supply = np.full_like(times, self.machine.coolant_supply_c, dtype=np.float64)
        # Energy balance: dT = Q / (m_dot * c_p).
        dt = it_w / np.maximum(flow * WATER_HEAT_CAPACITY, 1e-9)
        ret = supply + dt
        # Pump power follows the cube of relative flow.
        rel_flow = flow / (FLOW_KG_S_PER_MW * design_mw)
        pump = PUMP_FRACTION * design_w * rel_flow**3
        # Tower fans work harder when it is hot outside.
        outdoor = self.outdoor_temp(times)
        approach_penalty = np.clip(1.0 + (outdoor - 18.0) / 25.0, 0.5, 2.0)
        tower = TOWER_FRACTION * it_w * approach_penalty

        k = np.round(times / SAMPLE_PERIOD_S).astype(np.uint64)
        return {
            "supply_temp_c": supply
            + 0.1 * normal_from_index(self.seed, 80, k),
            "return_temp_c": ret + 0.1 * normal_from_index(self.seed, 81, k),
            "flow_kg_s": flow * (1 + 0.01 * normal_from_index(self.seed, 82, k)),
            "pump_power_w": pump
            * (1 + 0.02 * normal_from_index(self.seed, 83, k)),
            "tower_power_w": tower
            * (1 + 0.02 * normal_from_index(self.seed, 84, k)),
            "outdoor_temp_c": outdoor
            + 0.2 * normal_from_index(self.seed, 85, k),
            "it_power_w": it_w * (1 + 0.005 * normal_from_index(self.seed, 86, k)),
        }

    def emit(self, t0: float, t1: float) -> ObservationBatch:
        self._check_window(t0, t1)
        times = self.sample_times(t0, t1)
        if times.size == 0:
            return ObservationBatch.empty()
        state = self.plant_state(times)
        parts = []
        for sensor_name, series in state.items():
            sid = self._catalog.id_of(sensor_name)
            parts.append(
                ObservationBatch(
                    timestamps=times.astype(np.float64),
                    component_ids=np.zeros(times.size, dtype=np.int32),
                    sensor_ids=np.full(times.size, sid, dtype=np.int16),
                    values=series,
                )
            )
        return ObservationBatch.concat(parts).sorted_by_time()

    def nominal_bytes_per_day(self) -> float:
        per_plant = sum(s.sample_rate_hz for s in self._catalog)
        return per_plant * RAW_OBSERVATION_BYTES * 86_400.0

    def fleet_bytes_per_day(self) -> float:
        """Plant streams do not scale with node count."""
        return self.nominal_bytes_per_day()
