"""Workload archetypes: parametric job behaviour models.

Every simulated job belongs to an archetype describing how it exercises the
machine over its lifetime: GPU/CPU utilization shape, I/O intensity, and
network intensity.  These shapes are what the paper's energy-efficiency
work clusters (Fig. 10 groups job *power profiles* by shape), so the
archetypes double as ground-truth labels for the classifier benches.

Profiles are pure vectorized functions of *relative* job time — given an
array of times, utilization comes back as an array — so power generation
for a whole window of a whole fleet is a single broadcasted expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "WorkloadArchetype",
    "ARCHETYPES",
    "get_archetype",
    "archetype_names",
    "archetype_lookup",
]

ProfileFn = Callable[[np.ndarray, float], np.ndarray]


def _clip01(x: np.ndarray) -> np.ndarray:
    return np.clip(x, 0.0, 1.0)


def _hpl_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """HPL/benchmark shape: fast ramp, sustained near-peak, sharp tail.

    Mirrors the HPL run replayed in Fig. 11: a plateau at ~95% with a slow
    decay in the final 10% of the run as panels shrink.
    """
    ramp = _clip01(t_rel / (0.02 * duration + 1e-9))
    tail_start = 0.88 * duration
    tail = _clip01(1.0 - 0.6 * (t_rel - tail_start) / (0.12 * duration + 1e-9))
    tail = np.where(t_rel > tail_start, tail, 1.0)
    return _clip01(0.95 * ramp * tail)


def _ml_training_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """ML training: high plateau with periodic checkpoint dips."""
    period = max(duration / 12.0, 60.0)
    phase = (t_rel % period) / period
    dip = np.where(phase < 0.08, 0.35, 1.0)  # checkpoint stall
    ramp = _clip01(t_rel / 120.0)
    return _clip01(0.88 * ramp * dip)


def _climate_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """Climate/CFD: steady mid-high utilization with gentle oscillation."""
    osc = 0.06 * np.sin(2 * np.pi * t_rel / max(duration / 6.0, 300.0))
    return _clip01(0.70 + osc)


def _io_heavy_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """I/O-bound analysis: low compute with bursts between I/O phases."""
    period = max(duration / 8.0, 120.0)
    phase = (t_rel % period) / period
    return _clip01(np.where(phase < 0.4, 0.55, 0.15))


def _molecular_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """MD: sawtooth between neighbour-list rebuilds, upper-mid utilization."""
    period = max(duration / 20.0, 30.0)
    phase = (t_rel % period) / period
    return _clip01(0.60 + 0.25 * phase)


def _debug_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """Interactive/debug: mostly idle with sparse short spikes."""
    period = 300.0
    phase = (t_rel % period) / period
    return _clip01(np.where(phase < 0.05, 0.75, 0.08))


def _idle_profile(t_rel: np.ndarray, duration: float) -> np.ndarray:
    """Allocated but idle (the paper's wasted-allocation concern)."""
    return np.full_like(np.asarray(t_rel, dtype=np.float64), 0.02)


@dataclass(frozen=True)
class WorkloadArchetype:
    """A named job behaviour model.

    Attributes
    ----------
    name:
        Archetype label (ground truth for profile-classification benches).
    profile:
        ``profile(t_rel, duration) -> gpu_utilization in [0, 1]``.
    cpu_fraction:
        CPU utilization as a fraction of GPU utilization (captures
        CPU-heavy vs GPU-heavy codes).
    io_intensity:
        Mean filesystem bandwidth per node as a fraction of a reference
        10 GB/s client link.
    net_intensity:
        Mean injection bandwidth per node as a fraction of a 25 GB/s NIC.
    typical_nodes:
        (lo, hi) node-count range for the job-mix generator.
    typical_duration_s:
        (lo, hi) walltime range (seconds) for the job-mix generator.
    """

    name: str
    profile: ProfileFn
    cpu_fraction: float
    io_intensity: float
    net_intensity: float
    typical_nodes: tuple[int, int]
    typical_duration_s: tuple[float, float]

    def gpu_utilization(self, t_rel: np.ndarray, duration: float) -> np.ndarray:
        """Vectorized GPU utilization over relative job times."""
        return self.profile(np.asarray(t_rel, dtype=np.float64), duration)

    def cpu_utilization(self, t_rel: np.ndarray, duration: float) -> np.ndarray:
        """Vectorized CPU utilization (floor of 5% while the job runs)."""
        return _clip01(
            self.cpu_fraction * self.gpu_utilization(t_rel, duration) + 0.05
        )


ARCHETYPES: dict[str, WorkloadArchetype] = {
    a.name: a
    for a in [
        WorkloadArchetype(
            "hpl", _hpl_profile, 0.45, 0.02, 0.60, (64, 4096), (1800.0, 14400.0)
        ),
        WorkloadArchetype(
            "ml_training",
            _ml_training_profile,
            0.30,
            0.25,
            0.70,
            (8, 1024),
            (3600.0, 43200.0),
        ),
        WorkloadArchetype(
            "climate", _climate_profile, 0.55, 0.15, 0.45, (32, 2048), (7200.0, 43200.0)
        ),
        WorkloadArchetype(
            "io_heavy", _io_heavy_profile, 0.60, 0.80, 0.20, (4, 256), (1800.0, 14400.0)
        ),
        WorkloadArchetype(
            "molecular",
            _molecular_profile,
            0.40,
            0.05,
            0.35,
            (16, 512),
            (3600.0, 28800.0),
        ),
        WorkloadArchetype(
            "debug", _debug_profile, 0.80, 0.05, 0.05, (1, 8), (600.0, 3600.0)
        ),
        WorkloadArchetype(
            "idle", _idle_profile, 1.00, 0.00, 0.01, (1, 64), (1800.0, 7200.0)
        ),
    ]
}


def get_archetype(name: str) -> WorkloadArchetype:
    """Look up an archetype by name (ValueError with candidates if unknown)."""
    try:
        return ARCHETYPES[name]
    except KeyError:
        raise ValueError(
            f"unknown archetype {name!r}; known: {sorted(ARCHETYPES)}"
        ) from None


def archetype_names() -> list[str]:
    """All archetype names, sorted."""
    return sorted(ARCHETYPES)


def archetype_lookup(allocation, attribute: str) -> np.ndarray:
    """Dense ``job_id -> archetype.<attribute>`` table for an allocation.

    Ids no job holds read 0.0; callers map idle cells (job id -1) to 0.0
    themselves.
    """
    max_id = max((j.job_id for j in allocation.jobs), default=0)
    table = np.zeros(max_id + 1)
    for j in allocation.jobs:
        table[j.job_id] = getattr(get_archetype(j.archetype), attribute)
    return table
