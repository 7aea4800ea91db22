"""In-flight PRP chains cost O(1) memory in the transfer size, and a
drained run leaves no PRP list behind."""

import gc
import tracemalloc
from dataclasses import replace

from repro.baselines import build_bmstore
from repro.core import encode_global_prps
from repro.host.memory import BufferPool, HostMemory
from repro.nvme.prp import PRPList, build_prps, pages_for, walk_prps
from repro.sim import Simulator
from repro.sim.units import GIB, MS, PAGE_SIZE
from repro.workloads.fio import TABLE_IV_CASES, FioRun

IO_BYTES = 128 * 1024


def test_1024_large_chains_in_flight_stay_small():
    """1,024 128 KiB commands, each chain built the way the datapath
    builds it: the driver's list, the engine's walk, tag and per-extent
    list, and the drive's walk.  Page-by-page lists retained ~3.9 MiB
    here; runs retain under 1 MiB."""
    sim = Simulator()
    host = HostMemory(sim, 1 << 30)
    chip = HostMemory(sim, 1 << 28, base=1 << 40, name="chip")
    host_pool, chip_pool = BufferPool(host), BufferPool(chip)
    npages = IO_BYTES // PAGE_SIZE
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        in_flight = []
        for _ in range(1024):
            buf = host_pool.get(IO_BYTES)
            prp1, prp2 = build_prps(host_pool, pages_for(buf, IO_BYTES))
            host_pages = walk_prps(prp1, prp2, IO_BYTES, host.load_obj(prp2))
            tagged = encode_global_prps(5, host_pages)
            bprp1, bprp2 = build_prps(chip_pool, tagged[0:npages])
            drive_pages = walk_prps(bprp1, bprp2, IO_BYTES, chip.load_obj(bprp2))
            in_flight.append((host_pages, tagged, drive_pages))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(in_flight) == 1024
    assert retained <= 1.5 * 2**20, f"{retained / 2**20:.2f} MiB retained"


def _parked_lists(rig) -> int:
    return sum(isinstance(obj, PRPList)
               for memory in (rig.host.memory, rig.engine.chip_memory)
               for obj in memory._objects.values())


def test_drained_large_write_run_parks_no_prp_list():
    spec = replace(TABLE_IV_CASES["seq-w-256"], runtime_ns=2 * MS,
                   ramp_ns=1 * MS)
    rig = build_bmstore(num_ssds=1, seed=7)
    driver = rig.baremetal_driver(rig.provision("ns0", 64 * GIB))
    run = FioRun(rig.sim, [driver], spec, rig.streams)
    rig.sim.run(until=MS)
    # mid-window, both the driver's and the engine's lists are parked
    assert _parked_lists(rig) > 0
    rig.sim.run(run.finished)
    rig.sim.run()
    assert run.result().ios > 0
    assert _parked_lists(rig) == 0
