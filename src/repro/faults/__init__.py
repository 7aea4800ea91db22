"""Deterministic, seeded fault injection for the BM-Store datapath.

``FaultPlan`` (:mod:`repro.faults.plan`) is the data model,
``FaultInjector`` (:mod:`repro.faults.injector`) arms it into a rig,
and :mod:`repro.faults.presets` has canned plans for the CLI.
"""

from .._lazy import lazy_exports

__all__ = [
    "FAULT_KINDS",
    "DriverFaultPolicy",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "PRESETS",
    "PRESET_DESCRIPTIONS",
    "get_preset",
    "list_presets",
]

__getattr__, __dir__ = lazy_exports(__name__, __all__, {
    "injector": ("FaultInjector",),
    "plan": ("FAULT_KINDS", "DriverFaultPolicy", "FaultPlan", "FaultSpec"),
    "presets": (
        "PRESET_DESCRIPTIONS", "PRESETS", "get_preset", "list_presets",
    ),
})
