"""The fast-path switch and benchmark isolation for the data plane.

:func:`baseline_mode` selects the pre-optimization plane; :func:`reset_all`
empties the fast-path caches and the obs tracer and metrics between
benchmark repetitions.  Meters live in :data:`repro.obs.METRICS`.
"""

from repro.obs.metrics import METRICS
from repro.perf.baseline import baseline_mode, reset_all, reset_fast_path_caches

#: :data:`repro.obs.METRICS` under a second name.  Residue: the frozen
#: ``benchmarks/full`` harness reads ``PERF.counter(name)``; new code
#: records into and reads ``METRICS``.
PERF = METRICS

__all__ = [
    "PERF",
    "baseline_mode",
    "reset_all",
    "reset_fast_path_caches",
]
