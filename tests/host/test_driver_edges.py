"""NVMe-driver edge cases: backpressure, cid management, concurrency."""

import pytest

from repro.baselines import SPDKVhostTarget, build_bmstore, build_native
from repro.nvme import AdminOpcode
from repro.sim.units import GIB


def test_queue_depth_backpressure_blocks_excess_submissions():
    rig = build_native(1, queue_depth=4, num_io_queues=1)
    driver = rig.driver()
    completions = []

    def worker(i):
        info = yield driver.read(i, 1)
        completions.append(i)

    # 12 concurrent submits against 3 usable slots: all must complete
    procs = [rig.sim.process(worker(i)) for i in range(12)]
    rig.sim.run(rig.sim.all_of(procs))
    assert sorted(completions) == list(range(12))


def test_round_robin_spreads_across_io_queues():
    rig = build_native(1, num_io_queues=4)
    driver = rig.driver()

    def flow():
        for i in range(16):
            yield driver.read(i, 1)

    rig.sim.run(rig.sim.process(flow()))
    # every IO queue fielded interrupts
    assert driver.stats.interrupts >= 4
    assert driver.stats.completed == 16


def test_cid_space_wraps_without_collision():
    rig = build_native(1, queue_depth=8, num_io_queues=1)
    driver = rig.driver()

    def flow():
        for i in range(300):  # far beyond one queue's depth
            info = yield driver.read(i % 64, 1)
            assert info.ok

    rig.sim.run(rig.sim.process(flow()))
    assert driver.stats.completed == 300
    assert not driver._pending  # nothing leaked


def test_interleaved_reads_and_writes_complete_independently():
    rig = build_native(1)
    driver = rig.driver()
    done = {"r": 0, "w": 0}

    def reader():
        for i in range(20):
            info = yield driver.read(i, 1)
            assert info.ok
            done["r"] += 1

    def writer():
        for i in range(20):
            info = yield driver.write(1000 + i, 1)
            assert info.ok
            done["w"] += 1

    p1 = rig.sim.process(reader())
    p2 = rig.sim.process(writer())
    rig.sim.run(rig.sim.all_of([p1, p2]))
    assert done == {"r": 20, "w": 20}


def test_latency_includes_submission_path():
    rig = build_native(1)
    driver = rig.driver()

    def flow():
        info = yield driver.read(0, 1)
        return info.latency_ns

    latency = rig.sim.run(rig.sim.process(flow()))
    floor = (
        driver.kernel.submit_overhead_ns
        + driver.lock_ns
        + rig.ssds[0].profile.read_access_ns
    )
    assert latency > floor


def _pooled_initiator(initiator):
    """A native rig plus a block target that DMAs from host pools: the
    NVMe driver, or an SPDK vhost vdev on the same drive."""
    rig = build_native(1)
    if initiator == "driver":
        return rig, rig.driver()
    vhost = SPDKVhostTarget(rig.host, [rig.ssds[0]])
    vdev = vhost.create_vdev("vd0", 0, 0, 1 << 20)
    vhost.start()
    return rig, vdev


@pytest.mark.parametrize("nblocks", [1, 32])
@pytest.mark.parametrize("initiator", ["driver", "spdk"])
def test_buffer_pool_reuse_keeps_memory_bounded(initiator, nblocks):
    # 32 blocks = 128 KiB: the PRP list rides in a pooled buffer too
    rig, driver = _pooled_initiator(initiator)

    def flow():
        for i in range(200):
            yield driver.read(i * nblocks, nblocks)

    before = rig.host.memory.allocated
    rig.sim.run(rig.sim.process(flow()))
    first_round = rig.host.memory.allocated

    def flow2():
        for i in range(200):
            yield driver.read(i * nblocks, nblocks)

    rig.sim.run(rig.sim.process(flow2()))
    # the second round recycles the first round's buffers entirely
    assert rig.host.memory.allocated == first_round


@pytest.mark.parametrize("scheme", ["native", "bmstore"])
def test_admin_burst_beyond_ring_depth_completes(scheme):
    # twice the 32-deep admin ring in flight at once (an abort storm
    # after mass timeouts looks like this): submitters must wait for
    # ring space instead of overflowing the admin SQ/CQ
    if scheme == "native":
        rig = build_native(1)
        driver = rig.driver()
    else:
        rig = build_bmstore(num_ssds=1)
        driver = rig.baremetal_driver(rig.provision("ns0", 64 * GIB))
    events = [driver.admin(AdminOpcode.GET_FEATURES) for _ in range(64)]
    rig.sim.run(rig.sim.all_of(events))
    assert all(ev.value.ok for ev in events)
    assert driver.stats.completed == 64
