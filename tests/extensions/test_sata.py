"""SATA device + SATA-backed BM-Store namespace tests (paper §VI-A)."""

import pytest

from repro.baselines import build_bmstore
from repro.sata import HDD_7200_PROFILE, SATA_SSD_PROFILE, SATADisk
from repro.sim import Simulator, StreamFactory
from repro.sim.units import GIB, to_ms, to_us


def make_disk(profile=HDD_7200_PROFILE):
    sim = Simulator()
    rng = StreamFactory(5).stream("disk")
    return sim, SATADisk(sim, profile, rng, name="d0")


# ------------------------------------------------------------- device model
def test_hdd_latency_is_mechanical():
    sim, disk = make_disk()

    def one():
        result = yield disk.submit("read", 1_000_000, 1)
        return result, sim.now

    result, t = sim.run(sim.process(one()))
    assert result.ok
    # seek + rotation + transfer: single-digit milliseconds
    assert 1.0 <= to_ms(t) <= 20.0


def test_sata_ssd_latency_is_flat():
    sim, disk = make_disk(SATA_SSD_PROFILE)

    def one():
        yield disk.submit("read", 0, 1)
        t1 = sim.now
        yield disk.submit("read", disk.num_blocks - 1, 1)
        return t1, sim.now - t1

    t1, t2 = sim.run(sim.process(one()))
    # no seek penalty for a far LBA
    assert t2 == pytest.approx(t1, rel=0.10)
    assert to_us(t1) < 200


def test_hdd_near_seeks_cheaper_than_far_seeks():
    sim, disk = make_disk()
    times = []

    def flow():
        yield disk.submit("read", 0, 1)
        t0 = sim.now
        yield disk.submit("read", 8, 1)  # sequentialish
        times.append(sim.now - t0)
        t0 = sim.now
        yield disk.submit("read", disk.num_blocks - 1, 1)  # full stroke
        times.append(sim.now - t0)

    sim.run(sim.process(flow()))
    near, far = times
    assert far > near * 1.5


def test_ncq_bounds_concurrency_but_actuator_serializes():
    sim, disk = make_disk()
    done = []

    def worker(i):
        yield disk.submit("read", i * 1000, 1)
        done.append(sim.now)

    for i in range(8):
        sim.process(worker(i))
    sim.run()
    assert len(done) == 8
    assert len(set(done)) == 8  # strictly serialized service


def test_sata_data_persistence():
    sim, disk = make_disk(SATA_SSD_PROFILE)
    payload = b"\x5a" * 4096 * 2

    def flow():
        result = yield disk.submit("write", 40, 2, payload=payload)
        assert result.ok
        result = yield disk.submit("read", 40, 2, want_data=True)
        return result.data

    assert sim.run(sim.process(flow())) == payload


def test_sata_out_of_range_rejected():
    sim, disk = make_disk()

    def flow():
        result = yield disk.submit("read", disk.num_blocks, 1)
        return result

    assert not sim.run(sim.process(flow())).ok


def test_sata_unknown_op_rejected():
    sim, disk = make_disk()

    def flow():
        result = yield disk.submit("trim", 0, 1)
        return result

    assert not sim.run(sim.process(flow())).ok


# --------------------------------------------------- BM-Store + SATA backend
def sata_rig():
    rig = build_bmstore(num_ssds=1)
    disk = SATADisk(rig.sim, SATA_SSD_PROFILE, rig.streams.stream("sata"),
                    name="sata0")
    rig.engine.attach_sata(disk)
    driver = rig.baremetal_driver(rig.provision("sns", 64 * GIB, placement=[1]))
    return rig, disk, driver


def test_namespace_on_sata_backend_full_path():
    rig, disk, driver = sata_rig()
    payload = bytes(range(256)) * 16

    def flow():
        info = yield driver.write(7, 1, payload=payload)
        assert info.ok
        info = yield driver.read(7, 1, want_data=True)
        return info

    info = rig.sim.run(rig.sim.process(flow()))
    assert info.ok and info.data == payload
    assert disk.reads == 1 and disk.writes == 1


def test_sata_large_io_with_cxl_spilled_prp_list():
    # chip memory full: the engine parks the 32-page I/O's PRP list in
    # the CXL tier, and the SATA slot must resolve it from there
    rig, disk, driver = sata_rig()
    cxl = rig.engine.cxl_tier()
    chip = rig.engine.chip_memory
    chip.alloc(chip.size - chip.allocated, align=1)
    payload = bytes(range(256)) * 16 * 32

    def flow():
        info = yield driver.write(64, 32, payload=payload)
        assert info.ok
        info = yield driver.read(64, 32, want_data=True)
        return info

    info = rig.sim.run(rig.sim.process(flow()))
    assert info.ok and info.data == payload
    assert cxl.spills == 1


def test_sata_slot_pause_resume():
    rig, disk, driver = sata_rig()
    slot = rig.engine.adaptor.slot_for(1)
    got = []

    def flow():
        info = yield driver.read(0, 1)
        got.append(info.ok)

    slot.pause()
    rig.sim.process(flow())
    rig.sim.run(until=5_000_000)
    assert got == []
    slot.resume()
    rig.sim.run()
    assert got == [True]


def test_sata_slot_rejects_firmware_upgrade():
    rig, disk, driver = sata_rig()

    def flow():
        resp = yield rig.console.hot_upgrade(1, version="X")
        return resp

    resp = rig.sim.run(rig.sim.process(flow()))
    assert not resp.ok


def test_mixed_backends_share_one_engine():
    rig, disk, sata_driver = sata_rig()
    nvme_driver = rig.baremetal_driver(rig.provision("nns", 64 * GIB, placement=[0]))
    results = []

    def flow(tag, driver):
        info = yield driver.read(0, 1)
        results.append((tag, info.ok, info.latency_ns))

    p1 = rig.sim.process(flow("nvme", nvme_driver))
    p2 = rig.sim.process(flow("sata", sata_driver))
    rig.sim.run(rig.sim.all_of([p1, p2]))
    by_tag = {tag: lat for tag, ok, lat in results if ok}
    assert set(by_tag) == {"nvme", "sata"}
    assert by_tag["sata"] > by_tag["nvme"]  # interface gap preserved


def test_backend_count_capped_by_mapping_entry_bits():
    from repro.sim import SimulationError

    rig = build_bmstore(num_ssds=4)
    disk = SATADisk(rig.sim, SATA_SSD_PROFILE, rig.streams.stream("x"))
    with pytest.raises(SimulationError, match="2 bits"):
        rig.engine.attach_sata(disk)
