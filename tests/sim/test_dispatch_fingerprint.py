"""Dispatch-order fingerprints of whole simulated worlds.

The kernel may skip an event that no one can observe (nothing runs when
it fires), but it must never move an event that does run something.
Each scenario below hashes, for every dispatched event that has at
least one live callback, the triple

    (sim.now, the generators it resumes by qualname, count of other callbacks)

in dispatch order; an in-flight record's continuation counts as the
generator it stands for (``_REPLACES``).  A callback of an
``AnyOf``/``AllOf`` that has already fired is a no-op and is left out,
so a cancelled timer that would only have poked a settled condition
leaves the digest unchanged.
Beside each digest sits the exact number of events the scenario
dispatches, so a change in event count fails here, not only in the
benchmark's drift check.

The digests were last re-pinned, on purpose, when relay-only events
left the kernel: fixed delays became timers, free grants continue
inline (``Resource.try_acquire``), submitter processes start inside
their caller (``Simulator.start``), and a DMA's last link leg became
its completion (``Simulator.completion``).  Dropping a dispatch changes
a digest; per-command simulated times moved only through rare
same-instant ties, and the hot-remove scenarios also because a
surprise-removed drive now stops the commands it had already fetched.
Any later reordering of an observable callback, or a lost or added
one, changes the digests again.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.experiments import run_case
from repro.experiments.pushdown_ablation import PushdownCell, run_cell
from repro.faults import FaultPlan
from repro.nvme.flash import _MediaOp
from repro.nvme.ssd import DriveCommand
from repro.sim import AllOf, AnyOf, Process, Simulator
from repro.sim.units import MS
from repro.workloads.fio import TABLE_IV_CASES, FioWorker

_RESUME = Process._resume

#: in-flight records -> the generator each replaced.  A record's
#: continuation resumes the command at the point where that generator
#: resumed, so it hashes under the generator's qualname: the digests
#: pinned before the records existed still hold.
_REPLACES = {
    DriveCommand: "NVMeSSD._execute",
    FioWorker: "FioRun._worker",
}


def _resumed(cb):
    """The qualname a callback resumes, or None if it resumes nothing
    the digests name."""
    owner = getattr(cb, "__self__", cb)
    if isinstance(owner, Process) and cb.__func__ is _RESUME:
        return owner._generator.__qualname__
    if isinstance(owner, _MediaOp):
        # a media op ran inside its caller's generator (``yield from``)
        return _resumed(owner.then)
    return _REPLACES.get(type(owner))


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
                name = _resumed(cb)
                if name is not None:
                    resumed.append(name)
                elif isinstance(owner, (AnyOf, AllOf)) and owner.triggered:
                    continue
                else:
                    others += 1
            if resumed or others:
                self.digest.update(
                    f"{sim.now}|{','.join(resumed)}|{others}\n".encode())
        if self.inner is not None:
            self.inner.on_event_dispatch(sim, event)


class _Fingerprint:
    """The digest plus the count of events dispatched inside ``run``."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.events = 0


@pytest.fixture
def fingerprint(monkeypatch):
    """A sha256 and an event count fed by every ``Simulator.run`` in
    the test."""
    fp = _Fingerprint()
    original = Simulator.run

    def run(sim, until=None):
        inner = sim.checks
        sim.checks = _Tap(inner, fp.digest)
        before = sim.events_processed
        try:
            return original(sim, until)
        finally:
            sim.checks = inner
            fp.events += sim.events_processed - before

    monkeypatch.setattr(Simulator, "run", run)
    return fp


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


def _supervised(plan: FaultPlan, timeout_ms: int) -> FaultPlan:
    """``plan`` with the supervised driver path armed."""
    return plan.with_driver_policy(timeout_ns=timeout_ms * MS, max_retries=8,
                                   backoff_base_ns=250_000, backoff_cap_ns=MS)


SCENARIOS = {
    "rr128-bmstore": lambda: run_case(
        "bmstore", _short("rand-r-128", 3, 1), seed=7),
    "rr128-bmstore-hot-remove": lambda: run_case(
        "bmstore", _short("rand-r-128", 4, 1), seed=7,
        faults=_hot_remove(2)),
    "rr128-bmstore-die-stall": lambda: run_case(
        "bmstore", _short("rand-r-128", 3, 1), seed=7,
        faults=FaultPlan().die_stall(at_ns=2 * MS, duration_ns=MS // 2,
                                     stall_ns=20_000)),
    "rr128-bmstore-media-error": lambda: run_case(
        "bmstore", _short("rand-r-128", 3, 1), seed=7,
        faults=FaultPlan().media_error(at_ns=2 * MS, duration_ns=MS,
                                       count=16, op="read")),
    "rr128-bmstore-cmd-drop": lambda: run_case(
        "bmstore", _short("rand-r-128", 3, 1), seed=7,
        faults=_supervised(FaultPlan().cmd_drop(at_ns=2 * MS, count=4), 2)),
    "rr128-passthrough": lambda: run_case(
        "passthrough", _short("rand-r-128", 3, 1), seed=7),
    "rr128-passthrough-pt-hot-remove": lambda: run_case(
        "passthrough", _short("rand-r-128", 4, 1), seed=7,
        faults=_hot_remove(1)),
    "sw256-bmstore": lambda: run_case(
        "bmstore", _short("seq-w-256", 12, 4), seed=7),
    # two retries 1-2 ms apart keep the retry storm, and the armed PRP
    # checker's cost, small: every command the removal fails gives up
    # before the controller's 20 ms watchdog re-attaches the drive
    "sw256-bmstore-hot-remove": lambda: run_case(
        "bmstore", _short("seq-w-256", 12, 4), seed=7,
        faults=(FaultPlan()
                .hot_remove(0, at_ns=8 * MS, reattach_after_ns=MS)
                .with_driver_policy(timeout_ns=200 * MS, max_retries=2,
                                    backoff_base_ns=MS,
                                    backoff_cap_ns=4 * MS))),
    "minikv-pushdown": lambda: run_cell(
        PushdownCell(name="fp", seed=7, hot_remove=True)),
    "rr128-spdk-vm": lambda: run_case(
        "spdk-vm", _short("rand-r-128", 3, 1), seed=7),
}

#: scenario -> (dispatch-order digest, events dispatched)
PINNED = {
    "rr128-bmstore": (
        "f913d90351e6bf8aa6932c2fefd9ad7b0b99db0b35bfb2633490b144a2a4e4b3",
        96766),
    "rr128-bmstore-hot-remove": (
        "eb10ff19615bfc143f57a70e1f0bc1feaec5cdd85c2c97f7e8c051d3f8dd88e9",
        142680),
    "rr128-bmstore-die-stall": (
        "b88aad29d0e876960fd655cc3f4455712ef647297630bd0c12650b7792488ea8",
        97092),
    "rr128-bmstore-media-error": (
        "02d1e837219372c67690cf8812a13022cb580a1f684d057ce130ec2dd6f80820",
        96720),
    "rr128-bmstore-cmd-drop": (
        "0d655b1d2211bd2d4cf75e3c0dc5d4bfa7cbcb2d5c2f51858d8d57edb03c8efd",
        103016),
    "rr128-passthrough": (
        "66c58b7f359535b8b27804d6d34e13607dfc20382f01f5527a685af27b2281fc",
        81506),
    "rr128-passthrough-pt-hot-remove": (
        "98eaa1376a51ae46e6ab1cdc689b90536a7f327102d20c5eac647173281f149c",
        147612),
    "sw256-bmstore": (
        "9914d7727cf66b042e4331187e31c283b7204374be9c9bf34e1df10463d59412",
        51025),
    "sw256-bmstore-hot-remove": (
        "034ee74654d11672d720414a2b5f8f8b17d6ca454711a529432075d2a5c7645e",
        88083),
    "minikv-pushdown": (
        "0ab9e6d62a5fe2b632ce97498a62dc6bd1a9c4276afc3ccaca13048e05f2a13c",
        48658),
    "rr128-spdk-vm": (
        "487b11589922057721dc54b0a0c385b89e2f92a581f30ead54720166ab0b22e5",
        25469),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_dispatch_order_fingerprint_is_pinned(scenario, fingerprint):
    SCENARIOS[scenario]()
    assert (fingerprint.digest.hexdigest(), fingerprint.events) == PINNED[scenario]
