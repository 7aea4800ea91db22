"""Fault recovery — availability timeline under injected failures.

For each fault class, a BM-Store world runs a paced 4K random-read
load while one deterministic fault fires mid-run (the fig15 recipe:
paced workers + a :class:`~repro.sim.SeriesRecorder` so the IOPS dip
is visible).  The output is an availability report per class: the
steady-state IOPS before the fault, the depth of the dip, and how
long the service took to climb back above 80% of baseline.

Every class must report a *finite* recovery time: faults that never
dip the paced load (e.g. a lane-width degrade under light traffic)
legitimately report 0 ms.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional

from ..baselines import build_bmstore
from ..faults import FaultPlan
from ..obs import MetricsRegistry
from ..runner import parallel_map
from ..sim import SeriesRecorder
from ..sim.units import MS, ms, sec, to_ms
from .common import BM_NAMESPACE_BYTES, ExperimentResult

__all__ = ["run", "FAULT_CLASS_NAMES"]

#: when the fault fires / how long the world is observed
FAULT_AT = sec(1.0)
RUN_NS = sec(2.2)
WINDOW_NS = 50 * MS
#: a window below this fraction of baseline counts as "dipped"
HEALTHY_FRACTION = 0.8


def _policy(**overrides) -> dict:
    """Generous supervision: recovery, not retry-exhaustion, is under test."""
    knobs = dict(timeout_ns=ms(60), max_retries=10,
                 backoff_base_ns=ms(5), backoff_cap_ns=ms(100))
    knobs.update(overrides)
    return knobs


def _fw_orchestrate(rig) -> Iterator:
    """Trigger the firmware upgrade whose activation the plan stalls."""
    yield rig.sim.timeout(FAULT_AT - rig.sim.now)
    yield rig.console.hot_upgrade(0, version="FW-X", activation_s=0.1)


def _classes() -> list[tuple[str, FaultPlan, Optional[Callable]]]:
    return [
        ("media-error",
         FaultPlan()
         .media_error("bssd0", at_ns=FAULT_AT, duration_ns=250 * MS, op="any")
         .with_driver_policy(**_policy()),
         None),
        ("die-stall",
         FaultPlan()
         .die_stall("bssd0", at_ns=FAULT_AT, duration_ns=250 * MS,
                    stall_ns=ms(10))
         .with_driver_policy(**_policy()),
         None),
        ("cmd-drop",
         FaultPlan()
         .cmd_drop("bssd0", at_ns=FAULT_AT, count=8)
         .with_driver_policy(**_policy(timeout_ns=ms(20))),
         None),
        ("link-flap",
         FaultPlan()
         .link_flap("bssd0", at_ns=FAULT_AT, duration_ns=250 * MS)
         .with_driver_policy(**_policy()),
         None),
        ("width-degrade",
         FaultPlan()
         .width_degrade("bssd0", at_ns=FAULT_AT, lanes=1,
                        duration_ns=400 * MS),
         None),
        ("hot-remove",
         FaultPlan()
         .hot_remove(0, at_ns=FAULT_AT, reattach_after_ns=250 * MS)
         .with_driver_policy(**_policy()),
         None),
        # the activation pause is a *legitimate* outage: the timeout must
        # outlast it or the driver fights the upgrade with aborts
        ("fw-stall",
         FaultPlan()
         .firmware_stall("bssd0", extra_ns=400 * MS)
         .with_driver_policy(**_policy(timeout_ns=sec(2.0))),
         _fw_orchestrate),
    ]


FAULT_CLASS_NAMES = tuple(name for name, _plan, _orch in _classes())


def _counter_total(obs: MetricsRegistry, name: str) -> int:
    return int(sum(c.value for c in obs.counters(name).values()))


def _availability(ts: list[tuple[int, float]]) -> dict[str, Any]:
    """Baseline / dip / recovery from one IOPS time series."""
    pre = [r for t, r in ts if 200 * MS <= t < FAULT_AT]
    baseline = sum(pre) / len(pre) if pre else 0.0
    post = [(t, r) for t, r in ts if t >= FAULT_AT]
    threshold = HEALTHY_FRACTION * baseline
    dipped = [t for t, r in post if r < threshold]
    if dipped:
        last_dip = dipped[-1]
        recovery_ms = to_ms(last_dip + WINDOW_NS - FAULT_AT)
        recovered = any(t > last_dip and r >= threshold for t, r in post)
    else:
        recovery_ms = 0.0
        recovered = True
    return {
        "baseline_iops": baseline,
        "dip_iops": min((r for _, r in post), default=0.0),
        "recovery_ms": recovery_ms,
        "recovered": recovered,
    }


def _run_class(name: str, plan: FaultPlan, orchestrate: Optional[Callable],
               seed: int) -> dict[str, Any]:
    obs = MetricsRegistry()
    rig = build_bmstore(num_ssds=1, seed=seed, obs=obs, faults=plan)
    fn = rig.provision("ns0", BM_NAMESPACE_BYTES)
    driver = rig.baremetal_driver(fn)
    sim = rig.sim
    series = SeriesRecorder(sim, window_ns=WINDOW_NS)
    stats = {"ios": 0, "errors": 0}
    stop = {"flag": False}
    pace_ns = 2 * MS

    def io_worker(tag):
        lba = tag * 997
        while not stop["flag"]:
            info = yield driver.read(lba % (1 << 20), 1)
            lba += 7919
            stats["ios"] += 1
            if info.ok:
                series.tick()
            else:
                stats["errors"] += 1
            yield sim.timeout(pace_ns)

    def observe():
        if orchestrate is not None:
            yield from orchestrate(rig)
        if sim.now < RUN_NS:
            yield sim.timeout(RUN_NS - sim.now)
        stop["flag"] = True

    for tag in range(8):
        sim.spawn(io_worker(tag), name=f"io{tag}")
    sim.run(sim.process(observe(), name="observe"))
    # drain in-flight retries; bounded because the watchdog never stops
    sim.run(until=sim.now + 200 * MS)

    out = {"fault": name, "ios": stats["ios"], "errors": stats["errors"]}
    out.update(_availability(series.series(0, RUN_NS)))
    out["injected"] = rig.faults.injected if rig.faults is not None else 0
    out["retries"] = _counter_total(obs, "driver_retries")
    out["timeouts"] = _counter_total(obs, "driver_timeouts")
    out["aborts"] = _counter_total(obs, "driver_aborts")
    out["bmsc_recoveries"] = _counter_total(obs, "bmsc_recoveries")
    return out


def _run_class_by_name(args: tuple[str, int]) -> dict[str, Any]:
    """Worker entry: rebuild the (unpicklable) plan from its class name."""
    name, seed = args
    for cls_name, plan, orchestrate in _classes():
        if cls_name == name:
            return _run_class(name, plan, orchestrate, seed)
    raise ValueError(f"unknown fault class {name!r}")


def run(seed: int = 7, only: Optional[str] = None,
        workers: Optional[int] = None) -> ExperimentResult:
    """Regenerate this artifact; returns the ExperimentResult.

    ``workers`` fans the fault classes over processes (default:
    REPRO_WORKERS or sequential); each class builds its own world, so
    the report is identical either way.
    """
    result = ExperimentResult(
        "fault-recovery", "availability under injected faults (bmstore)"
    )
    names = [name for name in FAULT_CLASS_NAMES if not only or only in name]
    for data in parallel_map(
        _run_class_by_name, [(name, seed) for name in names], workers=workers
    ):
        result.add(
            fault=data["fault"],
            baseline_kiops=round(data["baseline_iops"] / 1e3, 2),
            dip_kiops=round(data["dip_iops"] / 1e3, 2),
            recovery_ms=round(data["recovery_ms"], 1),
            recovered=data["recovered"],
            ios=data["ios"],
            errors=data["errors"],
            injected=data["injected"],
            retries=data["retries"],
            timeouts=data["timeouts"],
            aborts=data["aborts"],
            bmsc_recoveries=data["bmsc_recoveries"],
        )
    result.notes.append(
        f"fault fires at t={to_ms(FAULT_AT):.0f} ms; recovery = last "
        f"{to_ms(WINDOW_NS):.0f} ms window below "
        f"{HEALTHY_FRACTION:.0%} of pre-fault IOPS"
    )
    result.notes.append(
        "width-degrade does not dip a paced load (recovery 0 ms is the "
        "expected finite answer); hot-remove recovery includes the "
        "BMS-Controller watchdog re-attach"
    )
    return result
