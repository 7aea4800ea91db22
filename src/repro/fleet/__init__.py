"""repro.fleet — datacenter-scale deployment simulation.

The paper argues BM-Store at fleet scale (thousands of servers managed
out of band, hot-upgrades without tenant downtime); this package models
that dimension: a :class:`FleetSpec` of racks and servers, tenant
demand profiles composed from the existing workload tables, placement
policies, and a rolling hot-upgrade orchestrator that fans per-server
BM-Store simulations over :mod:`repro.runner` workers deterministically.

Entry points: :func:`build_fleet` + :func:`make_tenants` +
:func:`run_fleet`, or ``python -m repro fleet`` from the CLI.
"""

from .._lazy import lazy_exports

__all__ = [
    "FleetSpec",
    "RackSpec",
    "ServerSpec",
    "build_fleet",
    "QOS_CLASSES",
    "QoSClass",
    "TENANT_PROFILES",
    "TenantProfile",
    "TenantSpec",
    "make_tenants",
    "POLICIES",
    "Placement",
    "PlacementError",
    "place",
    "evacuate",
    "MigrationArrival",
    "MigrationPlan",
    "ServerRunSpec",
    "TenantAssignment",
    "run_server",
    "shifted_preset",
    "FleetRunConfig",
    "plan_waves",
    "render_report",
    "run_fleet",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "migration": ("MigrationArrival", "MigrationPlan"),
    "orchestrator": (
        "FleetRunConfig", "plan_waves", "render_report", "run_fleet",
    ),
    "placement": (
        "POLICIES", "Placement", "PlacementError", "evacuate", "place",
    ),
    "server_sim": (
        "ServerRunSpec", "TenantAssignment", "run_server", "shifted_preset",
    ),
    "tenants": (
        "QOS_CLASSES", "TENANT_PROFILES", "QoSClass", "TenantProfile",
        "TenantSpec", "make_tenants",
    ),
    "topology": ("FleetSpec", "RackSpec", "ServerSpec", "build_fleet"),
})
