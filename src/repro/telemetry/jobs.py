"""Job traces and node-allocation lookup.

The resource-manager stream is the contextualization backbone of the whole
framework: the paper's Silver stage joins every other stream against job
allocation logs ("integrated with additional datasets (such as job
allocation logs) for contextualization", §V-A).  This module provides

* :class:`JobSpec` — one scheduled job (who, where, when, what archetype),
* :class:`AllocationTable` — a vectorized (node, time) -> job/utilization
  oracle used by the power, I/O, and interconnect generators,
* :func:`synthetic_job_mix` — a quick greedy job-mix generator for tests
  and telemetry-only runs (the full discrete-event scheduler lives in
  :mod:`repro.scheduler`).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.telemetry.machine import MachineConfig
from repro.telemetry.workloads import ARCHETYPES, get_archetype

__all__ = [
    "JobSpec",
    "AllocationTable",
    "synthetic_job_mix",
    "utilization_memo_disabled",
]

# Within one ingest window the same (nodes, times) utilization grid is
# requested several times — by each emitting source sharing a sample
# period and by each refinery's Silver join on the same bucket grid.
# The oracle is a pure function of its (immutable) job set, so repeated
# grids are served from a small per-table LRU of read-only arrays.
_util_memo_enabled = True
_util_toggle_lock = threading.Lock()
#: Toggle depth counter: ``_util_memo_enabled`` is maintained from this
#: under ``_util_toggle_lock`` so overlapping toggles cannot restore a
#: stale value (see PerfRegistry.disabled for the pattern).
_util_disable_depth = 0


@contextmanager
def utilization_memo_disabled():
    """Context manager that bypasses the utilization memo (baselines).
    Overlap-safe via a lock-guarded depth counter."""
    global _util_disable_depth, _util_memo_enabled
    with _util_toggle_lock:
        _util_disable_depth += 1
        _util_memo_enabled = False
    try:
        yield
    finally:
        with _util_toggle_lock:
            _util_disable_depth -= 1
            _util_memo_enabled = _util_disable_depth == 0


@dataclass(frozen=True)
class JobSpec:
    """One job as recorded by the resource manager.

    ``nodes`` is the sorted array of node ids allocated for the job's whole
    lifetime (no malleability, matching leadership-class batch jobs).
    """

    job_id: int
    user: str
    project: str
    archetype: str
    nodes: np.ndarray
    start: float
    end: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "nodes", np.unique(np.asarray(self.nodes, dtype=np.int32))
        )
        if self.end <= self.start:
            raise ValueError(f"job {self.job_id}: end must be after start")
        if self.nodes.size == 0:
            raise ValueError(f"job {self.job_id}: empty node list")
        if self.archetype not in ARCHETYPES:
            raise ValueError(f"job {self.job_id}: unknown archetype {self.archetype!r}")

    @property
    def duration(self) -> float:
        """Walltime in seconds."""
        return self.end - self.start

    @property
    def n_nodes(self) -> int:
        """Allocated node count."""
        return int(self.nodes.size)

    @property
    def node_seconds(self) -> float:
        """Node-seconds consumed (the accounting unit behind node-hours)."""
        return self.n_nodes * self.duration

    def overlaps(self, t0: float, t1: float) -> bool:
        """True if the job runs at any point in ``[t0, t1)``."""
        return self.start < t1 and self.end > t0


class AllocationTable:
    """Time-indexed view over a set of jobs with vectorized lookups.

    Jobs on a leadership system never share nodes, and the generators rely
    on that: construction rejects overlapping allocations on the same node.
    """

    def __init__(self, jobs: list[JobSpec]) -> None:
        self._jobs = sorted(jobs, key=lambda j: (j.start, j.job_id))
        self._by_id = {j.job_id: j for j in self._jobs}
        if len(self._by_id) != len(self._jobs):
            raise ValueError("duplicate job ids")
        self._starts = np.array([j.start for j in self._jobs])
        self._ends = np.array([j.end for j in self._jobs])
        self._check_no_node_conflicts()
        self._util_memo: OrderedDict[
            tuple, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = OrderedDict()
        self._util_memo_max = 16
        # The memo is shared by emitting sources and refineries, which
        # callers may drive from different threads; all OrderedDict
        # mutation sits under this lock.  The cached arrays themselves
        # are read-only.
        self._util_lock = threading.Lock()

    def _check_no_node_conflicts(self) -> None:
        per_node: dict[int, list[tuple[float, float, int]]] = {}
        for j in self._jobs:
            for node in j.nodes.tolist():
                per_node.setdefault(node, []).append((j.start, j.end, j.job_id))
        for node, ivals in per_node.items():
            ivals.sort()
            for (s0, e0, id0), (s1, e1, id1) in zip(ivals, ivals[1:]):
                if s1 < e0:
                    raise ValueError(
                        f"jobs {id0} and {id1} overlap on node {node}"
                    )

    @property
    def jobs(self) -> list[JobSpec]:
        """All jobs, sorted by start time."""
        return list(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def job(self, job_id: int) -> JobSpec:
        """Job by id (KeyError if unknown)."""
        return self._by_id[job_id]

    def jobs_overlapping(self, t0: float, t1: float) -> list[JobSpec]:
        """Jobs active at any point within ``[t0, t1)``."""
        mask = (self._starts < t1) & (self._ends > t0)
        return [j for j, m in zip(self._jobs, mask) if m]

    def job_at(self, node_id: int, t: float) -> JobSpec | None:
        """The job occupying ``node_id`` at time ``t``, if any."""
        for j in self.jobs_overlapping(t, np.nextafter(t, np.inf)):
            if node_id in j.nodes:
                return j
        return None

    def utilization(
        self, node_ids: np.ndarray, times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fleet utilization on a (node x time) grid.

        Returns ``(gpu_util, cpu_util, job_ids)`` each of shape
        ``(len(node_ids), len(times))``; ``job_ids`` is -1 where idle.
        The loop is per *job* (tens), never per sample (millions).
        """
        node_ids = np.asarray(node_ids, dtype=np.int32)
        times = np.asarray(times, dtype=np.float64)
        key = None
        if _util_memo_enabled and node_ids.size and times.size:
            key = (
                hashlib.blake2b(
                    np.ascontiguousarray(node_ids), digest_size=16
                ).digest(),
                hashlib.blake2b(
                    np.ascontiguousarray(times), digest_size=16
                ).digest(),
            )
            with self._util_lock:
                hit = self._util_memo.get(key)
                if hit is not None:
                    self._util_memo.move_to_end(key)
                    return hit
        gpu = np.zeros((node_ids.size, times.size))
        cpu = np.zeros_like(gpu)
        jid = np.full(gpu.shape, -1, dtype=np.int64)
        if times.size == 0 or node_ids.size == 0:
            return gpu, cpu, jid
        node_pos = {int(n): i for i, n in enumerate(node_ids)}
        for job in self.jobs_overlapping(times.min(), float(times.max()) + 1e-9):
            rows = [node_pos[n] for n in job.nodes.tolist() if n in node_pos]
            if not rows:
                continue
            tmask = (times >= job.start) & (times < job.end)
            if not tmask.any():
                continue
            arch = get_archetype(job.archetype)
            t_rel = times[tmask] - job.start
            g = arch.gpu_utilization(t_rel, job.duration)
            c = arch.cpu_utilization(t_rel, job.duration)
            rows = np.asarray(rows)[:, None]
            cols = np.flatnonzero(tmask)[None, :]
            gpu[rows, cols] = g[None, :]
            cpu[rows, cols] = c[None, :]
            jid[rows, cols] = job.job_id
        if key is not None:
            for a in (gpu, cpu, jid):
                a.setflags(write=False)
            with self._util_lock:
                self._util_memo[key] = (gpu, cpu, jid)
                while len(self._util_memo) > self._util_memo_max:
                    self._util_memo.popitem(last=False)
        return gpu, cpu, jid

    def log_records(self) -> list[dict]:
        """Resource-manager log lines (one dict per job) for ingestion."""
        return [
            {
                "job_id": j.job_id,
                "user": j.user,
                "project": j.project,
                "archetype": j.archetype,
                "n_nodes": j.n_nodes,
                "node_list": j.nodes.tolist(),
                "start": j.start,
                "end": j.end,
            }
            for j in self._jobs
        ]


def synthetic_job_mix(
    machine: MachineConfig,
    t_start: float,
    t_end: float,
    rng: np.random.Generator,
    mix: dict[str, float] | None = None,
    utilization_target: float = 0.85,
    users: int = 24,
    projects: int = 8,
    max_job_fraction: float = 0.5,
) -> AllocationTable:
    """Generate a conflict-free job mix filling ``[t_start, t_end)``.

    A greedy packer: each job takes the nodes that free up earliest, so the
    machine stays near ``utilization_target`` without any two jobs sharing
    a node.  Durations/node counts are drawn from each archetype's typical
    ranges, scaled down to fit small test fleets.

    Parameters
    ----------
    mix:
        Archetype -> weight.  Defaults to a leadership-facility-like blend
        dominated by simulation and ML codes.
    """
    if mix is None:
        mix = {
            "climate": 0.28,
            "molecular": 0.22,
            "ml_training": 0.20,
            "io_heavy": 0.12,
            "hpl": 0.04,
            "debug": 0.10,
            "idle": 0.04,
        }
    names = sorted(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative and sum > 0")
    weights = weights / weights.sum()

    horizon = t_end - t_start
    if horizon <= 0:
        raise ValueError("t_end must be after t_start")

    node_free = np.full(machine.n_nodes, t_start)
    jobs: list[JobSpec] = []
    job_id = 1
    # Cap attempts so degenerate parameters terminate.
    for _ in range(machine.n_nodes * 64):
        arch = get_archetype(names[int(rng.choice(len(names), p=weights))])
        lo_n, hi_n = arch.typical_nodes
        # Cap width so one job never books the whole (possibly tiny) fleet.
        cap = max(1, int(np.ceil(machine.n_nodes * max_job_fraction)))
        hi_n = min(hi_n, cap)
        lo_n = min(lo_n, hi_n)
        n_nodes = int(rng.integers(lo_n, hi_n + 1))
        lo_d, hi_d = arch.typical_duration_s
        duration = min(float(rng.uniform(lo_d, hi_d)), horizon)
        # Take the nodes that become free soonest.
        order = np.argsort(node_free, kind="stable")
        chosen = order[:n_nodes]
        start = float(max(node_free[chosen].max(), t_start))
        if start >= t_end:
            # Whole fleet is booked past the horizon; stop.
            if node_free.min() >= t_end:
                break
            continue
        end = min(start + duration, t_end + duration)  # jobs may straddle t_end
        jobs.append(
            JobSpec(
                job_id=job_id,
                user=f"user{int(rng.integers(users)):03d}",
                project=f"PRJ{int(rng.integers(projects)):03d}",
                archetype=arch.name,
                nodes=chosen,
                start=start,
                end=end,
            )
        )
        # Scheduling gap (scheduler/epilogue overhead) keeps steady-state
        # utilization just under the target without delaying first jobs.
        gap = duration * (1.0 - utilization_target) / max(
            utilization_target, 1e-6
        )
        node_free[chosen] = end + gap
        job_id += 1
        if node_free.min() >= t_end:
            break
    return AllocationTable(jobs)
