"""Baseline-scheme tests: feature matrix, VFIO exclusivity, SPDK vhost."""

import pytest

from repro.baselines import (
    SPDKConfig,
    build_native,
    build_spdk,
    build_vfio,
    feature_matrix,
    table1_schemes,
)
from repro.sim import SimulationError
from repro.sim.units import GIB, MS
from repro.workloads import FioSpec, run_fio


# ---------------------------------------------------------------- features
def test_feature_matrix_matches_paper_table1():
    matrix = feature_matrix()
    # row signature per scheme, ordered as FEATURE_COLUMNS
    expect = {
        "MDev-NVMe": (False, True, False, True, True, False),
        "SPDK vhost": (False, True, False, True, True, False),
        "SR-IOV": (True, False, True, True, True, False),
        "LeapIO": (True, True, False, False, False, False),
        "FVM": (True, True, False, True, False, False),
        "BM-Store": (True, True, True, True, True, True),
    }
    for scheme, flags in expect.items():
        assert tuple(matrix[scheme].values()) == flags, scheme


def test_feature_flags_are_derived_from_structure():
    bm = table1_schemes()["BM-Store"]
    assert bm.host_efficiency == (bm.dedicated_host_cores == 0)
    assert bm.transparency == (not bm.requires_custom_driver)
    leapio = table1_schemes()["LeapIO"]
    assert not leapio.performance  # 68% < 80% threshold


# -------------------------------------------------------------------- VFIO
def test_vfio_enforces_exclusive_assignment():
    rig = build_vfio(num_vms=1)
    from repro.host import VirtualMachine

    other = VirtualMachine(rig.host, "intruder")
    with pytest.raises(SimulationError, match="cannot be shared"):
        rig.assignment.assign(other, rig.ssds[0])
    assert rig.assignment.owner_of(rig.ssds[0]) == "vm0"
    rig.assignment.release(rig.ssds[0])
    rig.assignment.assign(other, rig.ssds[0])


# -------------------------------------------------------------------- SPDK
def quick_spec(op="randread", bs=4096, qd=16, jobs=2):
    return FioSpec("q", op, bs, iodepth=qd, numjobs=jobs,
                   runtime_ns=8 * MS, ramp_ns=2 * MS)


def test_spdk_dedicates_host_cores():
    rig = build_spdk(num_ssds=1, num_cores=2)
    assert rig.host.cpu.dedicated_by("vhost") == 2
    assert len(rig.host.cpu.tenant_cores) == rig.host.cpu.num_cores - 2


def test_spdk_vdev_io_and_data_integrity():
    rig = build_spdk(num_ssds=1, num_cores=1, num_vdevs=1)
    vdev = rig.vdev()
    payload = bytes(range(256)) * 16

    def flow():
        info = yield vdev.write(10, 1, payload=payload)
        assert info.ok
        info = yield vdev.read(10, 1, want_data=True)
        return info

    info = rig.sim.run(rig.sim.process(flow()))
    assert info.data == payload


def test_spdk_vdev_slices_are_isolated():
    rig = build_spdk(num_ssds=1, num_cores=1, num_vdevs=2,
                     vdev_blocks=1 * GIB // 4096)
    a, b = rig.vdevs

    def flow():
        yield a.write(0, 1, payload=b"A" * 4096)
        yield b.write(0, 1, payload=b"B" * 4096)
        ra = yield a.read(0, 1, want_data=True)
        rb = yield b.read(0, 1, want_data=True)
        return ra.data, rb.data

    da, db_ = rig.sim.run(rig.sim.process(flow()))
    assert da == b"A" * 4096
    assert db_ == b"B" * 4096


def test_spdk_throughput_bounded_by_polling_core():
    rig = build_spdk(num_ssds=1, num_cores=1, num_vdevs=1)
    spec = FioSpec("deep", "randread", 4096, iodepth=128, numjobs=4,
                   runtime_ns=10 * MS, ramp_ns=2 * MS)
    res = run_fio(rig.sim, [rig.vdev()], spec, rig.streams)
    native = build_native(1)
    nres = run_fio(native.sim, [native.driver()], spec, native.streams)
    # vhost on one core cannot match the native interrupt path at depth
    assert res.iops < 0.95 * nres.iops
    assert rig.target.cpu_utilization() > 0.5


def test_spdk_cpu_cost_model_shape():
    cfg = SPDKConfig()
    # 128K requests pay for their 30 slow segments; 4K requests do not
    assert cfg.cheap_segments * cfg.segment_bytes >= 4096
    big = cfg.per_op_ns + (128 * 1024 // cfg.segment_bytes - cfg.cheap_segments) * cfg.per_segment_ns
    small = cfg.per_op_ns
    assert big > 10 * small


def test_spdk_flush_passthrough():
    rig = build_spdk(num_ssds=1, num_cores=1, num_vdevs=1)

    def flow():
        yield rig.vdev().write(0, 4)
        info = yield rig.vdev().flush()
        return info

    info = rig.sim.run(rig.sim.process(flow()))
    assert info.ok
