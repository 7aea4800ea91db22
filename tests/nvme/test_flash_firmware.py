"""Flash performance-model and firmware-slot tests."""

import pytest

from repro.nvme import FirmwareImage, FirmwareSlots, FlashBackend, P4510_PROFILE
from repro.sim import SimulationError, Simulator, StreamFactory
from repro.sim.units import sec, to_us


def make_flash():
    sim = Simulator()
    rng = StreamFactory(3).stream("flash")
    return sim, FlashBackend(sim, P4510_PROFILE, rng)


def media(sim, op, *args):
    """An event firing when one flash op, which takes a continuation,
    is done."""
    done = sim.event()
    op(*args, lambda _ev: done.succeed())
    return done


def closed_loop(sim, flash, op, nbytes, workers, count):
    done = {"n": 0}

    def worker():
        while done["n"] < count:
            done["n"] += 1
            if op == "read":
                yield media(sim, flash.read, nbytes)
            else:
                yield media(sim, flash.write, nbytes)

    procs = [sim.process(worker()) for _ in range(workers)]
    sim.run(sim.all_of(procs))
    return sim.now


def test_profile_derived_limits_match_calibration():
    # DESIGN.md anchors
    assert P4510_PROFILE.max_random_read_iops == pytest.approx(668_000, rel=0.02)
    assert P4510_PROFILE.max_random_write_iops == pytest.approx(356_000, rel=0.02)


def test_read_saturation_iops():
    sim, flash = make_flash()
    elapsed = closed_loop(sim, flash, "read", 4096, workers=256, count=4000)
    iops = 4000 * 1e9 / elapsed
    assert iops == pytest.approx(P4510_PROFILE.max_random_read_iops, rel=0.05)


def test_sequential_read_bus_bound():
    sim, flash = make_flash()
    elapsed = closed_loop(sim, flash, "read", 128 * 1024, workers=64, count=500)
    bw = 500 * 128 * 1024 * 1e9 / elapsed
    assert bw == pytest.approx(3.23e9, rel=0.05)


def test_write_qd1_hits_buffer_latency():
    sim, flash = make_flash()

    def one():
        yield media(sim, flash.write, 4096)
        return sim.now

    t = sim.run(sim.process(one()))
    assert to_us(t) == pytest.approx(4.5, rel=0.15)


def test_write_saturation_is_drain_bound():
    sim, flash = make_flash()
    elapsed = closed_loop(sim, flash, "write", 4096, workers=128, count=4000)
    iops = 4000 * 1e9 / elapsed
    assert iops == pytest.approx(356_000, rel=0.08)


def test_flush_waits_for_backlog():
    sim, flash = make_flash()

    def flow():
        for _ in range(16):
            yield media(sim, flash.write, 128 * 1024)
        t0 = sim.now
        yield media(sim, flash.flush)
        return sim.now - t0

    wait = sim.run(sim.process(flow()))
    assert wait > 0


def test_flash_stats_accumulate():
    sim, flash = make_flash()
    closed_loop(sim, flash, "read", 4096, workers=2, count=10)
    assert flash.stats.reads == 10
    assert flash.stats.read_bytes == 10 * 4096


# ------------------------------------------------------------- firmware
def fw(version="V2", size=1024, act=sec(1)):
    return FirmwareImage(version=version, size_bytes=size, activation_ns=act)


def test_firmware_download_then_commit_then_activate():
    slots = FirmwareSlots(active=fw("V1"))
    image = fw("V2", size=2048)
    slots.download_chunk(1024, "V2")
    slots.download_chunk(1024, "V2")
    slots.commit(2, image)
    assert slots.slots[2] == image
    assert slots.active.version == "V1"
    slots.activate(2)
    assert slots.active.version == "V2"


def test_incomplete_download_rejected():
    slots = FirmwareSlots(active=fw("V1"))
    slots.download_chunk(100, "V2")
    with pytest.raises(SimulationError, match="incomplete"):
        slots.commit(2, fw("V2", size=2048))


def test_version_mismatch_rejected():
    slots = FirmwareSlots(active=fw("V1"))
    slots.download_chunk(2048, "V3")
    with pytest.raises(SimulationError, match="version"):
        slots.commit(2, fw("V2", size=2048))


def test_new_version_restarts_download_buffer():
    slots = FirmwareSlots(active=fw("V1"))
    slots.download_chunk(1024, "V2")
    slots.download_chunk(2048, "V3")  # switch: buffer resets to this chunk
    slots.commit(2, fw("V3", size=2048))


def test_slot_bounds_and_empty_slot():
    slots = FirmwareSlots(active=fw("V1"))
    slots.download_chunk(1024, "V2")
    with pytest.raises(SimulationError, match="slot"):
        slots.commit(9, fw("V2", size=1024))
    with pytest.raises(SimulationError, match="no firmware"):
        slots.activate(3)
