"""Canned fault plans for the CLI (``python -m repro fio --faults X``).

Timings are sized for the quick fio cases (tens of milliseconds of
simulated time); port/slot targets assume the ``bmstore`` scheme,
whose single-SSD backend drive and PCIe port are both named
``bssd0``.  Every preset that can leave a command without a CQE also
carries a driver policy, otherwise closed-loop workers would wait
forever.

Driver timeouts keep their meaning on every case: a preset's fixed
2-10 ms timeout is its floor, and ``get_preset(name, case_latency_ns)``
raises it to ``max(fixed, 2 x case latency)``.  The case latency is
the larger of the case's two Table V anchors
(``experiments.fig8_table5.PAPER_LATENCY_US``), so only a command held
up far past its case's normal queueing times out.  Without this,
seq-*-256's ~94 ms queueing latency would time out every command and
turn a 4-command drop into thousands of aborts.  Every ``rand-*``
anchor is under 1 ms, so those cases keep the fixed timeouts; ``repro
fio`` and the grid runner pass the latency in, and the fleet, whose
tenants mix cases, keeps the fixed values.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..sim.units import MS
from .plan import FaultPlan

__all__ = ["PRESETS", "PRESET_DESCRIPTIONS", "get_preset", "list_presets"]


def _media_burst() -> FaultPlan:
    return (FaultPlan()
            .media_error(at_ns=8 * MS, duration_ns=10 * MS, op="any")
            .with_driver_policy(timeout_ns=5 * MS, max_retries=3,
                                backoff_base_ns=200_000, backoff_cap_ns=MS))


def _die_stall() -> FaultPlan:
    return FaultPlan().die_stall(at_ns=8 * MS, duration_ns=6 * MS, stall_ns=500_000)


def _cmd_drop() -> FaultPlan:
    return (FaultPlan()
            .cmd_drop(at_ns=10 * MS, count=4)
            .with_driver_policy(timeout_ns=2 * MS, max_retries=4,
                                backoff_base_ns=100_000, backoff_cap_ns=500_000))


def _link_flap() -> FaultPlan:
    return (FaultPlan()
            .link_flap("bssd0", at_ns=10 * MS, duration_ns=2 * MS)
            .with_driver_policy(timeout_ns=5 * MS, max_retries=4,
                                backoff_base_ns=500_000, backoff_cap_ns=2 * MS))


def _width_degrade() -> FaultPlan:
    return FaultPlan().width_degrade("bssd0", at_ns=8 * MS, lanes=1,
                                     duration_ns=10 * MS)


def _hot_remove() -> FaultPlan:
    return (FaultPlan()
            .hot_remove(0, at_ns=10 * MS, reattach_after_ns=5 * MS)
            .with_driver_policy(timeout_ns=10 * MS, max_retries=8,
                                backoff_base_ns=500_000, backoff_cap_ns=2 * MS))


def _pt_hot_remove() -> FaultPlan:
    # Passthrough has no engine interposition: a yanked drive means
    # every in-flight command silently waits out the full driver
    # timeout before the abort/retry path kicks in, so this preset uses
    # a short timeout to keep the quick cases' recovery window visible.
    return (FaultPlan()
            .hot_remove(0, at_ns=10 * MS, reattach_after_ns=4 * MS)
            .with_driver_policy(timeout_ns=4 * MS, max_retries=10,
                                backoff_base_ns=250_000, backoff_cap_ns=MS))


def _pt_link_flap() -> FaultPlan:
    return (FaultPlan()
            .link_flap("bssd0", at_ns=10 * MS, duration_ns=2 * MS)
            .with_driver_policy(timeout_ns=4 * MS, max_retries=6,
                                backoff_base_ns=250_000, backoff_cap_ns=MS))


PRESETS = {
    "media-burst": _media_burst,
    "die-stall": _die_stall,
    "cmd-drop": _cmd_drop,
    "link-flap": _link_flap,
    "width-degrade": _width_degrade,
    "hot-remove": _hot_remove,
    "pt-hot-remove": _pt_hot_remove,
    "pt-link-flap": _pt_link_flap,
}

#: one-liners for ``python -m repro faults --list`` (and ``--faults list``)
PRESET_DESCRIPTIONS = {
    "media-burst": "10 ms of NVMe media errors on every I/O; driver retries",
    "die-stall": "6 ms window adding 0.5 ms flash latency per command (busy die/GC)",
    "cmd-drop": "4 commands swallowed with no CQE; driver timeout -> abort -> retry",
    "link-flap": "PCIe link to the backend drive down for 2 ms",
    "width-degrade": "backend link re-trains at x1 for 10 ms (bandwidth loss)",
    "hot-remove": "surprise removal of backend slot 0, re-seated 5 ms later",
    "pt-hot-remove": "hot-remove sized for passthrough: short driver timeout "
                     "is the only safety net",
    "pt-link-flap": "link flap sized for passthrough (no engine-side retry)",
}


def get_preset(name: str, case_latency_ns: Optional[int] = None) -> FaultPlan:
    """A fresh copy of preset ``name``; with ``case_latency_ns``, its
    driver timeout is at least twice that latency (see the module doc)."""
    try:
        plan = PRESETS[name]()
    except KeyError:
        raise ValueError(
            f"unknown fault preset {name!r}; one of {sorted(PRESETS)}"
        ) from None
    policy = plan.driver_policy
    if policy is not None and case_latency_ns is not None:
        plan.driver_policy = replace(
            policy, timeout_ns=max(policy.timeout_ns, 2 * case_latency_ns))
    return plan


def list_presets() -> list[tuple[str, str]]:
    """(name, one-line description) per canned plan, in listing order."""
    return [(name, PRESET_DESCRIPTIONS.get(name, "")) for name in PRESETS]
