"""Canonical gateway endpoints over the analytics apps.

Each adapter wraps one app entry point (UA dashboard, LVA, RATS) and
returns a *canonical payload*: tables, arrays, scalars and containers
of those, with every nondeterministic-under-concurrency field stripped.
The one deliberate omission is ``JobOverview.scan_stats`` — it reports
process-wide read-plane counter deltas and a scan wall time, which
depend on cache warmth and on what else the process is running, so it
cannot appear in a payload whose bytes must match across direct,
gateway and cached serving.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["build_endpoints"]


def _canon_findings(findings) -> tuple:
    return tuple(
        (f.code, f.severity, f.message, tuple(sorted(f.evidence.items())))
        for f in findings
    )


def build_endpoints(
    dashboard=None,
    lva=None,
    rats=None,
    tiers=None,
) -> dict[str, Callable[..., Any]]:
    """Endpoint registry for a :class:`~repro.serve.gateway.ServingGateway`.

    Pass whichever apps exist; only their endpoints are registered.
    ``tiers`` additionally enables the rollup/archive-backed endpoints
    (``fleet_power``, ``archived_power_usage``).
    """
    endpoints: dict[str, Callable[..., Any]] = {}

    if dashboard is not None:

        def job_overview(job_id: int) -> dict[str, Any]:
            overview = dashboard.job_overview(int(job_id))
            events = overview.events
            return {
                "job_id": int(job_id),
                "power": overview.power,
                "io": overview.io,
                "fabric": overview.fabric,
                "events": {
                    "timestamps": events.timestamps,
                    "component_ids": events.component_ids,
                    "severities": events.severities,
                    "message_ids": events.message_ids,
                },
                "findings": _canon_findings(overview.findings),
            }

        def framework_health(
            t0: float | None = None, t1: float | None = None
        ) -> tuple:
            return _canon_findings(dashboard.framework_health(t0, t1))

        endpoints["job_overview"] = job_overview
        endpoints["framework_health"] = framework_health

        if tiers is not None:

            def fleet_power() -> Any:
                return dashboard.fleet_power_summary(tiers)

            endpoints["fleet_power"] = fleet_power

    if lva is not None:

        def job_power_profile(job_id: int) -> Any:
            return lva.job_power_profile(int(job_id))

        def system_power_view(
            t0: float, t1: float, resolution_s: float = 60.0
        ) -> Any:
            return lva.system_power_view(t0, t1, resolution_s)

        def top_jobs_by_energy(n: int = 10) -> Any:
            return lva.top_jobs_by_energy(int(n))

        def cooling_plant_view(t0: float, t1: float) -> Any:
            return lva.cooling_plant_view(t0, t1)

        endpoints["job_power_profile"] = job_power_profile
        endpoints["system_power_view"] = system_power_view
        endpoints["top_jobs_by_energy"] = top_jobs_by_energy
        endpoints["cooling_plant_view"] = cooling_plant_view

    if rats is not None and tiers is not None:

        def archived_power_usage(
            dataset: str,
            t0: float | None = None,
            t1: float | None = None,
        ) -> Any:
            return rats.archived_power_usage(tiers, dataset, t0, t1)

        endpoints["archived_power_usage"] = archived_power_usage

    return endpoints
