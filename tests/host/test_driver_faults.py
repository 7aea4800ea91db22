"""Driver error paths: timeout -> Abort, backoff retries, exhaustion,
and hot-remove under load (no sim-kernel deadlock)."""

from repro.baselines import build_bmstore, build_native
from repro.faults import FaultPlan
from repro.nvme.spec import StatusCode
from repro.sim.units import ms, us


def _read(rig, driver, lba=0):
    out = {}

    def flow():
        out["info"] = yield driver.read(lba, 1)

    rig.sim.run(rig.sim.process(flow()))
    return out["info"]


def test_timeout_fires_abort_then_retry_succeeds():
    plan = (FaultPlan()
            .cmd_drop("nvme0", at_ns=0, count=1)
            .with_driver_policy(timeout_ns=ms(1), max_retries=2,
                                backoff_base_ns=us(100), backoff_cap_ns=us(400)))
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    info = _read(rig, driver)
    assert info.ok
    assert driver.stats.timeouts == 1
    assert driver.stats.aborts == 1
    assert driver.stats.retries == 1
    assert driver.stats.retries_exhausted == 0
    # the timed-out attempt waited the full deadline before retrying
    assert info.latency_ns >= ms(1)


def test_retry_backoff_is_exponential_and_capped():
    plan = (FaultPlan()
            .cmd_drop("nvme0", at_ns=0, count=3)
            .with_driver_policy(timeout_ns=ms(1), max_retries=4,
                                backoff_base_ns=ms(2), backoff_cap_ns=ms(8)))
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    info = _read(rig, driver)
    assert info.ok
    assert driver.stats.timeouts == 3
    assert driver.stats.retries == 3
    # three 1 ms deadlines + backoffs 2, 4, 8 ms
    assert info.latency_ns >= 3 * ms(1) + ms(2) + ms(4) + ms(8)
    assert info.latency_ns < ms(20)


def test_retry_exhaustion_surfaces_failed_completion():
    plan = (FaultPlan()
            .cmd_drop("nvme0", at_ns=0, count=10)
            .with_driver_policy(timeout_ns=ms(1), max_retries=2,
                                backoff_base_ns=us(100), backoff_cap_ns=us(200)))
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    info = _read(rig, driver)
    assert not info.ok
    assert info.status == int(StatusCode.ABORTED_BY_REQUEST)
    assert driver.stats.retries_exhausted == 1
    assert driver.stats.timeouts == 3  # initial attempt + 2 retries


def test_zero_timeout_policy_still_retries_on_retryable_status():
    # timeout disabled: supervision reacts to completions only
    plan = FaultPlan().with_driver_policy(timeout_ns=0, max_retries=3,
                                          backoff_base_ns=us(50),
                                          backoff_cap_ns=us(100))
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    assert _read(rig, driver).ok
    assert driver.stats.timeouts == 0


def test_hot_remove_mid_io_does_not_deadlock_without_policy():
    rig = build_bmstore(num_ssds=1)
    fn = rig.provision("ns0", 64 << 30)
    driver = rig.baremetal_driver(fn)
    infos = []

    def worker(i):
        info = yield driver.read(i * 11, 1)
        infos.append(info)

    def chaos():
        yield rig.sim.timeout(us(20))  # land mid-flight
        rig.engine.surprise_remove(0)

    procs = [rig.sim.process(worker(i)) for i in range(16)]
    rig.sim.process(chaos())
    rig.sim.run(rig.sim.all_of(procs))  # must terminate: no deadlock
    assert len(infos) == 16
    failed = [i for i in infos if not i.ok]
    assert failed, "surprise removal must fail in-flight I/O"
    assert all(
        i.status == int(StatusCode.NAMESPACE_NOT_READY) for i in failed
    )
    assert driver._pending == {} or all(
        qid == 0 for qid, _cid in driver._pending
    )

    # re-seat the drive directly: service resumes
    slot = rig.engine.adaptor.slot_for(0)
    slot.attach_ssd(rig.ssds[0])
    final = {}

    def again():
        final["info"] = yield driver.read(5, 1)

    rig.sim.run(rig.sim.process(again()))
    assert final["info"].ok


def test_submissions_after_removal_fail_fast():
    rig = build_bmstore(num_ssds=1)
    fn = rig.provision("ns0", 64 << 30)
    driver = rig.baremetal_driver(fn)
    rig.engine.surprise_remove(0)
    info = _read(rig, driver)
    assert not info.ok
    assert info.status == int(StatusCode.NAMESPACE_NOT_READY)


def test_completed_attempt_cancels_its_deadline_timer():
    """A command that completes before its deadline leaves no live
    timer behind: the deadline is cancelled, so it never dispatches
    (it would only poke the already-settled AnyOf)."""
    plan = FaultPlan().with_driver_policy(timeout_ns=ms(50), max_retries=2)
    rig = build_native(1, faults=plan)
    driver = rig.driver()
    info = _read(rig, driver)
    assert info.ok and info.latency_ns < ms(1)
    deadlines = [ev for _, _, ev in rig.sim._heap
                 if getattr(ev, "delay", None) == ms(50)]
    assert len(deadlines) == 1 and deadlines[0].defunct
    rig.sim.run(until=rig.sim.now + ms(60))
    assert not deadlines[0].processed
