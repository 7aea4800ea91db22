"""Instrument arming per scheme, pinned.

Every runnable scheme runs a short rand-r-128 window with all checkers,
one timeline fault the scheme can serve and a driver fault policy.  The
per-checker coverage counts, the injected-fault counters and the digest
of the whole metrics snapshot pin which parts of each world carry a
checker, the injector and the metrics registry: a part that lost (or
gained) an instrument moves a count or the digest.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments import quick_cases, run_case
from repro.faults import FaultPlan
from repro.sim.units import MS

SPEC = replace(quick_cases(["rand-r-128"])[0], runtime_ns=4 * MS, ramp_ns=1 * MS)

#: scheme -> (checker coverage, faults_injected counters, snapshot sha256)
PINNED = {
    "native": (
        {"ring": 13552, "prp": 6218, "lba": 0, "qos": 0, "kernel": 68592, "push": 0},
        {"faults_injected{kind=link_flap,target=nvme0}": 1},
        "a4174f5db587e293fe9f13837d3da062be67415aed07f0ceb9e8f3cf568f85f5",
    ),
    "bmstore": (
        {"ring": 24312, "prp": 10909, "lba": 4601, "qos": 0, "kernel": 115588, "push": 0},
        {"faults_injected{kind=hot_remove,target=0}": 1},
        "851dc35db8b92e212693bc1eaa293eaa3ba4b67293a1891842fbb6969c27020e",
    ),
    "passthrough": (
        {"ring": 18301, "prp": 5565, "lba": 24, "qos": 0, "kernel": 100555, "push": 0},
        {"faults_injected{kind=hot_remove,target=0}": 1},
        "1b15403e633306e536df0377c860168e035c474df9c163733e5369acaf4c43ac",
    ),
    "vfio-vm": (
        {"ring": 9964, "prp": 4148, "lba": 0, "qos": 0, "kernel": 48695, "push": 0},
        {"faults_injected{kind=link_flap,target=nvme0}": 1},
        "55598762b6c721c18763006a08f1961952d6e2827153b6dae6aba15090acedee",
    ),
    "bmstore-vm": (
        {"ring": 15164, "prp": 6971, "lba": 3193, "qos": 0, "kernel": 74536, "push": 0},
        {"faults_injected{kind=hot_remove,target=0}": 1},
        "9b32d8c07f79af4ce73a61456fffa7a0a73e5653bf41de95e23e44776f09f039",
    ),
    "spdk-vm": (
        {"ring": 6192, "prp": 3096, "lba": 0, "qos": 0, "kernel": 25844, "push": 0},
        {"faults_injected{kind=link_flap,target=nvme0}": 1},
        "5fe635ff6e02728ac6cc5d02625ab66f06aef68ce69c053abed3163768f69b1d",
    ),
}


def _plan(scheme: str) -> FaultPlan:
    plan = FaultPlan()
    if scheme in ("bmstore", "passthrough", "bmstore-vm"):
        plan.hot_remove(0, at_ns=2 * MS, reattach_after_ns=1 * MS)
    else:
        plan.link_flap("nvme0", at_ns=2 * MS, duration_ns=1 * MS)
    return plan.with_driver_policy(timeout_ns=2 * MS, max_retries=4,
                                   backoff_base_ns=250_000, backoff_cap_ns=MS)


@pytest.mark.parametrize("scheme", sorted(PINNED))
def test_instruments_armed_per_scheme(scheme):
    coverage, injected, digest = PINNED[scheme]
    res = run_case(scheme, SPEC, seed=7, checks="all", faults=_plan(scheme))
    snap = res.obs.snapshot()
    assert res.checks.summary() == coverage
    assert {k: v for k, v in snap["counters"].items()
            if k.startswith("faults_injected")} == injected
    assert hashlib.sha256(
        json.dumps(snap, sort_keys=True).encode()).hexdigest() == digest
