"""MDev-NVMe mediated-passthrough baseline tests (the vhost target's
MDEV_CONFIG preset)."""

import pytest

from repro.baselines import MDEV_CONFIG, SPDKConfig, SPDKVhostTarget, build_native
from repro.sim import SimulationError
from repro.sim.units import GIB, MS
from repro.workloads import FioSpec, run_fio


def mdev_world(slices=1, config=MDEV_CONFIG):
    rig = build_native(1)
    target = SPDKVhostTarget(rig.host, [rig.ssds[0]], config=config, name="mdev")
    vdisks = [
        target.create_vdev(f"vd{i}", 0, i * (256 * GIB // 4096), 256 * GIB // 4096)
        for i in range(slices)
    ]
    target.start()
    return rig, target, vdisks


def test_mdev_dedicates_one_core_and_installs_in_host():
    rig, target, _ = mdev_world()
    assert rig.host.cpu.dedicated_by("mdev") == 1  # the Table I row


def test_mdev_near_native_throughput_at_depth():
    rig, target, (vd,) = mdev_world()
    spec = FioSpec("deep", "randread", 4096, iodepth=128, numjobs=4,
                   runtime_ns=12 * MS, ramp_ns=3 * MS)
    res = run_fio(rig.sim, [vd], spec, rig.streams)
    # mediated fast path keeps ~native IOPS (the MDev-NVMe claim)
    assert res.iops == pytest.approx(640_000, rel=0.10)
    assert target.cpu_utilization() > 0.5  # but the polling core burns


def test_mdev_data_integrity_with_lba_translation():
    rig, target, vdisks = mdev_world(slices=2)
    a, b = vdisks

    def flow():
        yield a.write(0, 1, payload=b"A" * 4096)
        yield b.write(0, 1, payload=b"B" * 4096)
        ra = yield a.read(0, 1, want_data=True)
        rb = yield b.read(0, 1, want_data=True)
        return ra.data, rb.data

    da, db_ = rig.sim.run(rig.sim.process(flow()))
    assert da == b"A" * 4096 and db_ == b"B" * 4096
    # slices landed at distinct physical LBAs
    assert rig.ssds[0].block_data(0) == b"A" * 4096
    assert rig.ssds[0].block_data(256 * GIB // 4096) == b"B" * 4096


@pytest.mark.parametrize("config", [SPDKConfig(), MDEV_CONFIG],
                         ids=["spdk-default", "mdev"])
def test_mdev_slice_bounds_checked(config):
    rig, target, _ = mdev_world(config=config)
    with pytest.raises(SimulationError, match="beyond"):
        target.create_vdev("huge", 0, 0, rig.ssds[0].namespaces[1].num_blocks + 1)


def test_mdev_low_depth_latency_close_to_native():
    rig, target, (vd,) = mdev_world()
    spec = FioSpec("shallow", "randread", 4096, iodepth=1, numjobs=2,
                   runtime_ns=8 * MS, ramp_ns=2 * MS)
    res = run_fio(rig.sim, [vd], spec, rig.streams)
    # ~native 77us + mediation + injection ~ <92us
    assert res.avg_latency_us < 95
