"""A surprise-removed drive stops executing the commands it had fetched.

The slot fails every in-flight command at removal, and the engine
releases each command's chip-memory PRP list.  A drive that kept going
would read that recycled list (and DMA through a dead port, and post a
CQE into a ring that no longer waits for it); once pulled, its in-flight
executions must issue no further DMA and post no CQE.
"""

from repro.baselines import build_bmstore
from repro.nvme.spec import SQE_BYTES, StatusCode
from repro.sim.units import GIB


def test_removal_between_sqe_fetch_and_prp_list_fetch_of_128k_write():
    rig = build_bmstore(num_ssds=1)
    sim, engine, ssd = rig.sim, rig.engine, rig.ssds[0]
    driver = rig.baremetal_driver(rig.provision("ns0", 64 * GIB))
    removed_at: list[int] = []
    dma_after_removal: list[str] = []
    read, write = ssd.port.mem_read, ssd.port.mem_write

    def pull(_ev):
        # inside the drive's decode window: the SQE has landed, the
        # 32-entry PRP list has not been fetched yet
        removed_at.append(sim.now)
        engine.surprise_remove(0)

    def probed_read(addr, length):
        if removed_at:
            dma_after_removal.append("read")
        ev = read(addr, length)
        if length == SQE_BYTES and not removed_at:
            ev.callbacks.append(lambda _e: sim.timeout(1).callbacks.append(pull))
        return ev

    def probed_write(addr, length, data=None):
        if removed_at:
            dma_after_removal.append("write")
        return write(addr, length, data)

    ssd.port.mem_read, ssd.port.mem_write = probed_read, probed_write
    cq_tail = engine.adaptor.slot_for(0).cq.tail

    def one_write():
        return (yield driver.write(0, 32))  # 128 KiB: needs a PRP list

    info = sim.run(sim.process(one_write()))
    sim.run()

    assert removed_at, "the SQE fetch never completed"
    assert int(info.status) == int(StatusCode.NAMESPACE_NOT_READY)
    assert dma_after_removal == []
    assert engine.adaptor.slot_for(0).cq.tail == cq_tail  # no CQE posted
    assert ssd.stats.write_ops == 0 and ssd.stats.inflight == 0
