"""Dispatch-order fingerprints of whole simulated worlds.

The kernel may skip an event that no one can observe (nothing runs when
it fires), but it must never move an event that does run something.
Each scenario below hashes, for every dispatched event that has at
least one live callback, the triple

    (sim.now, the generators it resumes by qualname, count of other callbacks)

in dispatch order.  A callback of an ``AnyOf``/``AllOf`` that has
already fired is a no-op and is left out, so a cancelled timer that
would only have poked a settled condition leaves the digest unchanged.

The pinned digests were computed with the kernel that still scheduled
every process completion, MSI-X delivery and store put; any reordering
of an observable callback, or a lost or added one, changes them.  The
``rr128-spdk-vm`` digest was computed before the MDev-NVMe model was
folded into the vhost target as a cost preset, so it pins the SPDK
dispatch order across that fold.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments import run_case
from repro.experiments.pushdown_ablation import PushdownCell, run_cell
from repro.faults import FaultPlan
from repro.sim import AllOf, AnyOf, Process, Simulator
from repro.sim.units import MS
from repro.workloads.fio import TABLE_IV_CASES

_RESUME = Process._resume


class _Tap:
    """Kernel dispatch hook that hashes observable dispatches, then
    forwards to whatever checker the world armed itself."""

    def __init__(self, inner, digest):
        self.inner = inner
        self.digest = digest

    def on_event_dispatch(self, sim, event) -> None:
        callbacks = event.callbacks
        if callbacks:
            resumed = []
            others = 0
            for cb in callbacks:
                owner = getattr(cb, "__self__", None)
                if isinstance(owner, Process) and cb.__func__ is _RESUME:
                    resumed.append(owner._generator.__qualname__)
                elif isinstance(owner, (AnyOf, AllOf)) and owner.triggered:
                    continue
                else:
                    others += 1
            if resumed or others:
                self.digest.update(
                    f"{sim.now}|{','.join(resumed)}|{others}\n".encode())
        if self.inner is not None:
            self.inner.on_event_dispatch(sim, event)


@pytest.fixture
def fingerprint(monkeypatch):
    """A sha256 fed by every ``Simulator.run`` in the test."""
    digest = hashlib.sha256()
    original = Simulator.run

    def run(sim, until=None):
        inner = sim.checks
        sim.checks = _Tap(inner, digest)
        try:
            return original(sim, until)
        finally:
            sim.checks = inner

    monkeypatch.setattr(Simulator, "run", run)
    return digest


def _short(case: str, runtime_ms: int, ramp_ms: int):
    return replace(TABLE_IV_CASES[case], runtime_ns=runtime_ms * MS,
                   ramp_ns=ramp_ms * MS)


def _hot_remove(timeout_ms: int) -> FaultPlan:
    """Surprise removal inside a short window, with the supervised
    (timeout + abort + retry) driver path armed."""
    return (FaultPlan()
            .hot_remove(0, at_ns=2 * MS, reattach_after_ns=1 * MS)
            .with_driver_policy(timeout_ns=timeout_ms * MS, max_retries=8,
                                backoff_base_ns=250_000, backoff_cap_ns=MS))


SCENARIOS = {
    "rr128-bmstore": lambda: run_case(
        "bmstore", _short("rand-r-128", 3, 1), seed=7),
    "rr128-bmstore-hot-remove": lambda: run_case(
        "bmstore", _short("rand-r-128", 4, 1), seed=7,
        faults=_hot_remove(2)),
    "rr128-passthrough": lambda: run_case(
        "passthrough", _short("rand-r-128", 3, 1), seed=7),
    "rr128-passthrough-pt-hot-remove": lambda: run_case(
        "passthrough", _short("rand-r-128", 4, 1), seed=7,
        faults=_hot_remove(1)),
    "sw256-bmstore": lambda: run_case(
        "bmstore", _short("seq-w-256", 12, 4), seed=7),
    "minikv-pushdown": lambda: run_cell(
        PushdownCell(name="fp", seed=7, hot_remove=True)),
    "rr128-spdk-vm": lambda: run_case(
        "spdk-vm", _short("rand-r-128", 3, 1), seed=7),
}

PINNED = {
    "rr128-bmstore":
        "e1365cc5a58a06e2bcd8de4a5e9486befbfef1d74bc772a329c40136d40245bf",
    "rr128-bmstore-hot-remove":
        "648f633715044d9b02a653c4597fd9ff202bf2bbb8616337e214be77b7a85e5b",
    "rr128-passthrough":
        "64967e70f7614865abfc35f128bad133d09135e0491913c62dac3443ed61d6a7",
    "rr128-passthrough-pt-hot-remove":
        "fc639397b9db64d331c8c72f7c3365a3680e268693cddcf0ed92d8665cc8bc40",
    "sw256-bmstore":
        "4f53d2fb405a5cc6b8c8b45d01621bd70acef2e291d7d348a87ca99c02d83073",
    "minikv-pushdown":
        "dab54f4eaf2eaaafaeb70308310a1f1ef566a57827fc205b813f69039b96b748",
    "rr128-spdk-vm":
        "fad64d76c41981c08242fa0498fbe12ab41c024338d72bd5b711971d56e86903",
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dispatch_order_fingerprint_is_pinned(scenario, fingerprint):
    SCENARIOS[scenario]()
    assert fingerprint.hexdigest() == PINNED[scenario]
