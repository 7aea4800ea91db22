"""FaultInjector wired through real rigs: every hook point fires."""

import json

import pytest

from repro.baselines import build_bmstore, build_native
from repro.experiments.common import quick_cases, run_case
from repro.faults import FaultPlan, get_preset
from repro.nvme.spec import StatusCode
from repro.obs import MetricsRegistry
from repro.sim.units import MS, ms, us
from repro.workloads.fio import FioSpec


def _one_read(rig, driver, lba=0):
    out = {}

    def flow():
        out["info"] = yield driver.read(lba, 1)

    rig.sim.run(rig.sim.process(flow()))
    return out["info"]


# ------------------------------------------------------------- media faults
def test_media_error_surfaces_nvme_status_and_counters():
    obs = MetricsRegistry()
    plan = FaultPlan().media_error("nvme0", at_ns=0, count=1, op="read")
    rig = build_native(1, obs=obs, faults=plan)
    info = _one_read(rig, rig.driver())
    assert not info.ok
    assert info.status == int(StatusCode.DATA_TRANSFER_ERROR)
    # the second read is past the one-shot budget
    assert _one_read(rig, rig.driver(), lba=8).ok
    assert rig.faults.injected == 1
    [counter] = obs.counters("faults_injected").values()
    assert counter.value == 1
    assert sum(c.value for c in obs.counters("span_faults").values()) == 1


def test_media_error_op_and_lba_filters():
    plan = FaultPlan().media_error("nvme0", at_ns=0, op="write", lba=100, nblocks=4)
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    assert _one_read(rig, driver, lba=100).ok  # reads unaffected

    out = {}

    def flow():
        out["miss"] = yield driver.write(50, 1)   # outside the bad range
        out["hit"] = yield driver.write(102, 1)   # inside it

    rig.sim.run(rig.sim.process(flow()))
    assert out["miss"].ok
    assert not out["hit"].ok


def test_die_stall_adds_latency_inside_window():
    clean = build_native(1)
    t_clean = _one_read(clean, clean.driver()).latency_ns
    plan = FaultPlan().die_stall("nvme0", at_ns=0, duration_ns=ms(5),
                                 stall_ns=us(300))
    stalled = build_native(1, faults=plan)
    t_stalled = _one_read(stalled, stalled.driver()).latency_ns
    assert t_stalled >= t_clean + us(300)


def test_link_flap_stalls_the_port():
    plan = FaultPlan().link_flap("nvme0", at_ns=0, duration_ns=ms(2))
    rig = build_native(1, faults=plan)
    info = _one_read(rig, rig.driver())
    assert info.ok
    assert info.latency_ns >= ms(2)


def test_width_degrade_rescales_and_restores_lanes():
    plan = FaultPlan().width_degrade("nvme0", at_ns=0, lanes=1,
                                     duration_ns=ms(1))
    rig = build_native(1, faults=plan)
    port = rig.host.fabric.port("nvme0")
    rig.sim.run(until=10_000)
    assert port.lanes == 1
    rig.sim.run(until=2 * MS)
    assert port.lanes == 4


# ---------------------------------------------------------------- dormancy
def test_empty_plan_is_byte_identical_to_no_plan():
    (spec,) = quick_cases(["rand-r-1"])
    bare = run_case("bmstore", spec, seed=11)
    empty = run_case("bmstore", spec, seed=11, faults=FaultPlan())
    assert empty.fio.ios == bare.fio.ios
    assert json.dumps(empty.snapshot, sort_keys=True) == \
        json.dumps(bare.snapshot, sort_keys=True)


def test_empty_plan_creates_no_injector():
    rig = build_bmstore(num_ssds=1, faults=FaultPlan())
    assert rig.faults is None
    for ssd in rig.ssds:
        assert ssd.faults is None
    assert rig.engine.faults is None


# ------------------------------------------------------------- determinism
def test_same_seed_same_plan_same_bytes():
    (spec,) = quick_cases(["rand-r-1"])

    def plan():
        return (FaultPlan()
                .media_error("bssd0", at_ns=ms(6), duration_ns=ms(4), op="any")
                .cmd_drop("bssd0", at_ns=ms(12), count=2)
                .with_driver_policy(timeout_ns=ms(2), max_retries=3,
                                    backoff_base_ns=us(100),
                                    backoff_cap_ns=us(400)))

    a = run_case("bmstore", spec, seed=3, faults=plan())
    b = run_case("bmstore", spec, seed=3, faults=plan())
    assert a.fio.ios == b.fio.ios and a.errors == b.errors
    assert json.dumps(a.snapshot, sort_keys=True) == \
        json.dumps(b.snapshot, sort_keys=True)
    # and the faults really fired
    assert sum(c.value for c in a.obs.counters("faults_injected").values()) > 0


def test_failed_ios_count_as_errors_not_as_completions():
    """Under cmd-drop every write in this short window ends in error:
    fio reports them as errors and moves no bytes, IOPS or latency."""
    spec = FioSpec("all-fail", "write", 128 * 1024, iodepth=16, numjobs=4,
                   runtime_ns=3 * MS, ramp_ns=11 * MS)
    case = run_case("bmstore", spec, seed=7, faults=get_preset("cmd-drop"))
    assert case.errors > 0
    assert case.fio.ios == 0 and case.iops == 0
    assert case.fio.bytes_moved == 0 and case.fio.per_target_ios == {}
    assert case.latency is None


# ------------------------------------------- hot remove + managed recovery
def test_hot_remove_recovery_via_watchdog_and_fault_log():
    obs = MetricsRegistry()
    # removal at 1 ms catches the workers' second round in flight; the
    # watchdog re-seat (scan period + hot-plug pre/post) lands ~120 ms
    # in, so the retry budget must stretch past it: 5+10+20*6 = 135 ms
    plan = (FaultPlan()
            .hot_remove(0, at_ns=ms(1), reattach_after_ns=ms(1))
            .with_driver_policy(timeout_ns=ms(10), max_retries=8,
                                backoff_base_ns=ms(5), backoff_cap_ns=ms(20)))
    rig = build_bmstore(num_ssds=1, obs=obs, faults=plan)
    fn = rig.provision("ns0", 64 << 30)
    driver = rig.baremetal_driver(fn)
    infos = []

    def worker(i):
        info = yield driver.read(i * 7, 1)
        infos.append(info)
        yield rig.sim.timeout(ms(1))
        info = yield driver.read(i * 13, 1)
        infos.append(info)

    procs = [rig.sim.process(worker(i)) for i in range(8)]
    rig.sim.run(rig.sim.all_of(procs))
    assert len(infos) == 16
    # the retry policy rode out the removal window: no surfaced error
    assert all(info.ok for info in infos)
    assert rig.controller.recoveries == 1
    assert sum(c.value for c in obs.counters("bmsc_recoveries").values()) == 1

    # out-of-band visibility through NVMe-MI
    resp = rig.sim.run(rig.console.fault_log())
    assert resp.ok
    kinds = {e["kind"] for e in resp.body["events"]}
    assert "hot_remove" in kinds and "reattach" in kinds
    assert resp.body["recoveries"] == 1
    assert all(s["attached"] for s in resp.body["slots"])

    # the re-seated drive serves I/O again
    assert _one_read(rig, driver, lba=99).ok


def test_engine_stall_slows_dispatch():
    (spec,) = quick_cases(["rand-r-1"])
    clean = run_case("bmstore", spec, seed=5)
    plan = FaultPlan().engine_stall(at_ns=0, duration_ns=0, stall_ns=us(30))
    slowed = run_case("bmstore", spec, seed=5, faults=plan)
    assert slowed.avg_latency_us >= clean.avg_latency_us + 25
    assert sum(
        c.value for c in slowed.obs.counters("faults_injected").values()
    ) > 0


def test_timeline_targets_the_world_lacks_are_rejected_as_it_is_built():
    # an unknown port, a hot-remove without an engine, a slot past the last
    for build, plan, match in (
        (build_native, FaultPlan().link_flap("bssd0"), "unknown PCIe port 'bssd0'"),
        (build_native, FaultPlan().hot_remove(0), "needs a BMS engine"),
        (build_bmstore, FaultPlan().hot_remove(1), "backend slot 1"),
    ):
        with pytest.raises(ValueError, match=match):
            build(num_ssds=1, faults=plan)
