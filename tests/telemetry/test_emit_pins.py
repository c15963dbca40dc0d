"""Every fleet source's emitted bytes, pinned to committed digests.

``test_batch_emit`` and ``test_emit_properties`` hold ``emit`` to
``emit_reference``; a change that shifts both paths the same way passes
them.  This file pins what each of the six fleet sources emits — both
paths, every column's dtype and bytes — plus its volume accounting
(``nominal_bytes_per_day``, ``fleet_bytes_per_day`` and the fleet's
``extrapolated_bytes_per_day``), on two fleets and three windows, to the
literal values in ``emit_pins.json``.

The pins were written by the code before the per-node sources were
folded onto ``NodeSource``/``NodeGridSource``; a change that moves them
changes emission.  To regenerate after an intended change::

    PYTHONPATH=src python tests/telemetry/test_emit_pins.py
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.telemetry import COMPASS, MINI, FleetTelemetry, synthetic_job_mix

PINS = Path(__file__).with_name("emit_pins.json")
HORIZON_S = 240.0

#: name -> (machine, fleet seed, node subset or None for the whole machine)
FLEETS = {
    "mini_seed9": (MINI, 9, None),
    "compass16_subset_seed7": (COMPASS.scaled(16), 7, [1, 6, 7, 13]),
}

#: Aligned, unaligned (for both the 1 s and the 10 s cadences) and — past
#: the job horizon — all-idle windows.
WINDOWS = {
    "aligned": (0.0, 30.0),
    "unaligned": (95.0, 127.5),
    "idle": (HORIZON_S + 60.0, HORIZON_S + 90.0),
}


def make_fleet(name: str) -> FleetTelemetry:
    machine, seed, nodes = FLEETS[name]
    allocation = synthetic_job_mix(
        machine, 0.0, HORIZON_S, np.random.default_rng(5)
    )
    return FleetTelemetry(machine, allocation, seed=seed, nodes=nodes)


def batch_digest(batch) -> str:
    """blake2b over every column's dtype and bytes, in field order."""
    h = hashlib.blake2b(digest_size=16)
    for field in dataclasses.fields(batch):
        column = getattr(batch, field.name)
        h.update(field.name.encode())
        h.update(column.dtype.str.encode())
        h.update(column.tobytes())
    return h.hexdigest()


def fleet_pins(name: str) -> dict:
    """Digests and volumes of one fleet, in the layout of the JSON file."""
    fleet = make_fleet(name)
    sources = {
        s.name: s
        for s in (fleet.power, fleet.perf, fleet.syslog, fleet.storage_io,
                  fleet.interconnect, fleet.facility)
    }
    out: dict = {
        "nominal_bytes_per_day": {
            n: s.nominal_bytes_per_day() for n, s in sources.items()
        },
        "fleet_bytes_per_day": {
            n: s.fleet_bytes_per_day() for n, s in sources.items()
        },
        "windows": {},
    }
    for window, (t0, t1) in WINDOWS.items():
        emitted = fleet.emit_window(t0, t1)
        out["windows"][window] = {
            n: {
                "emit": batch_digest(emitted[n]),
                "emit_reference": batch_digest(s.emit_reference(t0, t1)),
                "rows": len(emitted[n]),
            }
            for n, s in sources.items()
        }
    out["extrapolated_bytes_per_day"] = fleet.extrapolated_bytes_per_day()
    return out


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("fleet_name", sorted(FLEETS))
def test_emission_matches_pins(pins, fleet_name):
    assert fleet_pins(fleet_name) == pins[fleet_name]


def test_pins_cover_every_source_and_window(pins):
    """The pins exercise rows on every source and an idle window."""
    for fleet_name in FLEETS:
        windows = pins[fleet_name]["windows"]
        assert set(windows) == set(WINDOWS)
        assert set(windows["aligned"]) == {
            "power", "perf_counters", "syslog", "storage_io",
            "interconnect", "facility",
        }
        assert all(w["rows"] > 0 for w in windows["aligned"].values())


if __name__ == "__main__":
    PINS.write_text(
        json.dumps({n: fleet_pins(n) for n in sorted(FLEETS)}, indent=1,
                   sort_keys=True) + "\n"
    )
