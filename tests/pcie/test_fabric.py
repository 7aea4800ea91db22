"""PCIe fabric routing, timing, config space, and MSI-X tests."""

import tracemalloc

import pytest

from repro.host.memory import HostMemory
from repro.pcie import fabric as fabric_module
from repro.pcie import (
    ConfigSpace,
    InterruptController,
    PCIeDevice,
    PCIeFabric,
    SRIOVCapability,
    VendorDefinedMessage,
)
from repro.sim import SimulationError, Simulator


class _Sink:
    """Minimal AddressHandler for BAR tests."""

    def __init__(self, access_ns=10):
        self.access_ns = access_ns
        self.writes = []

    def mem_write(self, addr, length, data):
        self.writes.append((addr, length, data))

    def mem_read(self, addr, length):
        return b"\x5a" * length


def make_fabric():
    sim = Simulator()
    fabric = PCIeFabric(sim, hop_latency_ns=150)
    mem = HostMemory(sim, 1 << 30)
    fabric.set_root_handler(mem)
    return sim, fabric, mem


def test_endpoint_write_reaches_root_memory():
    sim, fabric, mem = make_fabric()
    port = fabric.attach("dev0", lanes=4)

    def proc():
        yield port.mem_write(0x1000, 8, b"ABCDEFGH")

    sim.run(sim.process(proc()))
    assert mem.mem_read(0x1000, 8) == b"ABCDEFGH"
    assert sim.now > 150  # paid at least the hop latency


def test_endpoint_read_roundtrip_time_and_data():
    sim, fabric, mem = make_fabric()
    port = fabric.attach("dev0", lanes=4)
    mem.mem_write(0x2000, 4, b"WXYZ")

    def proc():
        data = yield port.mem_read(0x2000, 4)
        return (data, sim.now)

    data, t = sim.run(sim.process(proc()))
    assert data == b"WXYZ"
    # request hop + access + completion hop
    assert t >= 2 * 150 + mem.access_ns


def test_cpu_write_reaches_device_bar():
    sim, fabric, _mem = make_fabric()
    port = fabric.attach("dev0", lanes=4)
    sink = _Sink()
    port.map_window(0x1_0000_0000, 0x1000, sink)

    def proc():
        yield fabric.cpu_write(0x1_0000_0010, 4, b"\x01\x00\x00\x00")

    sim.run(sim.process(proc()))
    assert sink.writes == [(0x1_0000_0010, 4, b"\x01\x00\x00\x00")]


def test_cpu_read_from_device_bar():
    sim, fabric, _mem = make_fabric()
    port = fabric.attach("dev0", lanes=4)
    port.map_window(0x1_0000_0000, 0x1000, _Sink())

    def proc():
        data = yield fabric.cpu_read(0x1_0000_0000, 2)
        return data

    assert sim.run(sim.process(proc())) == b"\x5a\x5a"


def test_peer_to_peer_write_traverses_both_ports():
    sim, fabric, _mem = make_fabric()
    a = fabric.attach("a", lanes=4)
    b = fabric.attach("b", lanes=4)
    sink = _Sink()
    b.map_window(0x2_0000_0000, 0x1000, sink)

    def proc():
        yield a.mem_write(0x2_0000_0000, 4, b"peer")

    sim.run(sim.process(proc()))
    assert sink.writes
    assert sim.now >= 2 * 150  # two hops


def test_overlapping_windows_rejected():
    sim, fabric, _mem = make_fabric()
    port = fabric.attach("dev0", lanes=4)
    port.map_window(0x1000_0000, 0x2000, _Sink())
    with pytest.raises(SimulationError):
        port.map_window(0x1000_1000, 0x2000, _Sink())


def test_unclaimed_address_without_root_handler_errors():
    sim = Simulator()
    fabric = PCIeFabric(sim)
    port = fabric.attach("dev0")
    with pytest.raises(SimulationError, match="no window claims"):
        port.mem_write(0x5000, 4)


WIN_SIZE = 0x1000_0000
#: windows 0 and 1 touch, so window 0's end is window 1's base
WIN_BASES = (0x1_0000_0000, 0x1_1000_0000, 0x2_0000_0000, 0x3_0000_0000)


def make_four_window_fabric():
    sim, fabric, mem = make_fabric()
    sinks = [_Sink() for _ in WIN_BASES]
    for i, (base, sink) in enumerate(zip(WIN_BASES, sinks)):
        fabric.attach(f"ssd{i}").map_window(base, WIN_SIZE, sink)
    return sim, fabric, mem, sinks


def _route(sim, fabric, addr):
    sim.run(fabric.cpu_write(addr, 8))


def test_window_edges_route_to_their_owner():
    sim, fabric, mem, sinks = make_four_window_fabric()
    owners = {WIN_BASES[1]: sinks[1], WIN_BASES[3] + WIN_SIZE: mem}
    for base, sink in zip(WIN_BASES, sinks):
        owners.setdefault(base, sink)
        owners.setdefault(base + WIN_SIZE - 1, sink)
        owners.setdefault(base + WIN_SIZE, mem)
    for addr, owner in owners.items():
        written = mem.bytes_written
        counts = [len(s.writes) for s in sinks]
        _route(sim, fabric, addr)
        if owner is mem:
            assert mem.bytes_written == written + 8, hex(addr)
            assert [len(s.writes) for s in sinks] == counts, hex(addr)
        else:
            assert owner.writes[-1][0] == addr, hex(addr)
            assert mem.bytes_written == written, hex(addr)


def test_routing_keeps_no_per_address_state():
    sim, fabric, _, _ = make_four_window_fabric()
    bases = (0,) + WIN_BASES
    _route(sim, fabric, 0x40)  # warm every lazily built piece first
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for i in range(10_000):
            addr = bases[i % len(bases)] + (i // len(bases)) * 64
            fabric._resolve(addr)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only_fabric = [tracemalloc.Filter(True, fabric_module.__file__)]
    grown = sum(stat.size_diff for stat in after.filter_traces(only_fabric)
                .compare_to(before.filter_traces(only_fabric), "filename"))
    assert grown <= 0


def test_set_root_handler_after_routing_takes_effect_at_once():
    sim, fabric, mem, sinks = make_four_window_fabric()
    addr = 0x5000
    _route(sim, fabric, addr)
    assert mem.bytes_written == 8
    new_root = _Sink()
    fabric.set_root_handler(new_root)
    _route(sim, fabric, addr)
    assert new_root.writes == [(addr, 8, None)]
    assert mem.bytes_written == 8
    # windows still win over the new root
    _route(sim, fabric, WIN_BASES[2])
    assert sinks[2].writes[-1][0] == WIN_BASES[2]
    assert len(new_root.writes) == 1


def test_bandwidth_shapes_transfer_time():
    sim, fabric, _mem = make_fabric()
    slow = fabric.attach("slow", lanes=1)  # ~0.98 GB/s

    def proc():
        yield slow.mem_write(0x100, 1 << 20, None)  # 1 MiB
        return sim.now

    t = sim.run(sim.process(proc()))
    # >= serialization at ~1GB/s ~ 1 ms
    assert t >= 1_000_000


def test_vdm_routing_to_endpoint_and_back():
    sim, fabric, _mem = make_fabric()
    port = fabric.attach("bms", lanes=8)
    got_at_ep = []
    got_at_root = []
    port.on_vdm(lambda vdm: got_at_ep.append(vdm.payload))
    fabric.set_root_vdm_handler(lambda vdm: got_at_root.append(vdm.payload))

    def proc():
        yield fabric.root_send_vdm(
            VendorDefinedMessage(requester_id=0, payload=b"cmd", target_id="bms")
        )
        yield port.send_vdm(
            VendorDefinedMessage(requester_id=1, payload=b"resp", route_to_root=True)
        )

    sim.run(sim.process(proc()))
    assert got_at_ep == [b"cmd"]
    assert got_at_root == [b"resp"]


def test_vdm_unknown_target_rejected():
    sim, fabric, _mem = make_fabric()
    with pytest.raises(SimulationError, match="unknown VDM target"):
        fabric.root_send_vdm(
            VendorDefinedMessage(requester_id=0, payload=b"x", target_id="ghost")
        )
        sim.run()


# ---------------------------------------------------------------- SR-IOV
def test_sriov_capability_vf_routing_ids():
    cap = SRIOVCapability(total_vfs=8, first_vf_offset=1, vf_stride=1)
    cap.enable(4)
    assert cap.vf_enable and cap.num_vfs == 4
    assert [cap.vf_routing_id(0x10, i) for i in range(4)] == [0x11, 0x12, 0x13, 0x14]
    cap.disable()
    assert not cap.vf_enable


def test_sriov_enable_bounds():
    cap = SRIOVCapability(total_vfs=4)
    with pytest.raises(ValueError):
        cap.enable(5)
    with pytest.raises(ValueError):
        cap.enable(0)
    with pytest.raises(ValueError):
        cap.vf_routing_id(0, 4)


def test_device_sriov_creates_vfs():
    dev = PCIeDevice("nic")
    pf = dev.add_pf(0x100, vendor_id=0x8086, device_id=0x1234, total_vfs=8,
                    bar_sizes={0: 0x1000})
    vfs = dev.enable_sriov(pf, 3)
    assert len(vfs) == 3
    assert all(vf.is_vf and vf.parent_pf is pf for vf in vfs)
    assert [vf.routing_id for vf in vfs] == [0x101, 0x102, 0x103]
    assert len(dev.all_functions()) == 4


def test_config_space_enable_gates_dma():
    cs = ConfigSpace(vendor_id=1, device_id=2)
    assert not cs.can_dma
    cs.enable()
    assert cs.can_dma and cs.memory_space_enable


# ----------------------------------------------------------------- MSI-X
def test_msix_end_to_end_interrupt_delivery():
    sim, fabric, mem = make_fabric()
    # rebuild with an IRQ window like the host does
    irq = InterruptController(base=0xFEE0_0000)
    fired = []
    addr, data = irq.allocate(lambda v: fired.append(v))

    class Root:
        access_ns = 60

        def mem_write(self, a, l, d):
            if a >= 0xFEE0_0000:
                irq.mem_write(a, l, d)
            else:
                mem.mem_write(a, l, d)

        def mem_read(self, a, l):
            return mem.mem_read(a, l)

    fabric.set_root_handler(Root())
    port = fabric.attach("dev0")
    dev = PCIeDevice("d")
    pf = dev.add_pf(0x10, 1, 2, bar_sizes={0: 0x1000})
    pf.msix.configure(0, addr, data)

    def proc():
        yield pf.msix.raise_vector(port, 0)

    sim.run(sim.process(proc()))
    assert fired == [data]


def test_msix_masked_vector_not_delivered():
    sim = Simulator()
    fabric = PCIeFabric(sim)
    port = fabric.attach("dev0")
    dev = PCIeDevice("d")
    pf = dev.add_pf(0x10, 1, 2, bar_sizes={0: 0x1000})
    pf.msix.configure(3, 0xFEE0_0000, 7)
    pf.msix.mask(3)
    assert pf.msix.raise_vector(port, 3) is None


def test_msix_unconfigured_vector_errors():
    dev = PCIeDevice("d")
    pf = dev.add_pf(0x10, 1, 2)
    with pytest.raises(SimulationError):
        pf.msix.entry(9)


def test_interrupt_controller_spurious_msi_rejected():
    sim = Simulator()
    irq = InterruptController(base=0x1000)
    with pytest.raises(SimulationError, match="spurious"):
        irq.mem_write(0x1004, 4, b"\x00\x00\x00\x00")
