"""The kernel never schedules an event that no one can observe.

A spawned process has no handle, so it finishes without a completion
event; posted puts, writes and interrupts skip their completion event.
These tests pin the rules and the contracts around them: a kept
``process`` handle still fires, an unobserved crash still crashes, and
posted deliveries land exactly when their waited-on forms would.
"""

import pytest

from repro.host.memory import HostMemory
from repro.pcie import InterruptController, PCIeDevice, PCIeFabric
from repro.sim import Simulator, Store


class _Recorder:
    """Kernel dispatch hook recording every dispatched event's name."""

    def __init__(self):
        self.names = []

    def on_event_dispatch(self, sim, event):
        self.names.append(event.name)


# ------------------------------------------------------------- spawn
def test_spawned_completion_is_neither_dispatched_nor_counted():
    sim = Simulator()
    sim.checks = rec = _Recorder()

    def worker():
        yield sim.timeout(5)

    sim.spawn(worker(), name="worker")
    sim.run()
    # the bootstrap poke and the timeout; no completion event
    assert sim.events_processed == 2
    assert rec.names == ["Timeout", "Timeout"]
    assert sim.now == 5


def test_spawned_process_object_is_reused():
    sim = Simulator()
    seen = []

    def worker(tag):
        seen.append(tag)
        yield sim.timeout(1)

    sim.spawn(worker("a"), name="a")
    sim.run()
    assert len(sim._process_pool) == 1
    recycled = sim._process_pool[-1]
    assert recycled._generator is None
    sim.spawn(worker("b"), name="b")
    assert not sim._process_pool
    assert recycled.name == "b"
    sim.run()
    assert seen == ["a", "b"]
    assert sim._process_pool == [recycled]


def test_unobserved_spawned_process_that_raises_crashes_strict_run():
    sim = Simulator()

    def doomed():
        yield sim.timeout(3)
        raise ValueError("boom")

    sim.spawn(doomed(), name="doomed")
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert sim.now == 3


def test_spawned_failure_is_dropped_on_a_lenient_run():
    sim = Simulator(strict=False)

    def doomed():
        yield sim.timeout(3)
        raise ValueError("boom")

    sim.spawn(doomed(), name="doomed")
    sim.run()
    assert sim.events_processed == 2
    assert len(sim._process_pool) == 1


# ----------------------------------------------------------- process
def test_kept_process_handle_fires_for_an_early_waiter():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(4)
        return "done"

    handle = sim.process(child())

    def waiter():
        got.append((yield handle))

    sim.process(waiter())
    sim.run()
    assert got == ["done"]
    assert handle.processed and handle.value == "done"


def test_kept_process_handle_fires_when_yielded_after_it_finished():
    sim = Simulator()
    got = []

    def child():
        yield sim.timeout(1)
        return 42

    handle = sim.process(child())

    def late_waiter():
        yield sim.timeout(10)
        assert handle.processed
        got.append(((yield handle), sim.now))

    sim.process(late_waiter())
    sim.run()
    assert got == [(42, 10)]


# -------------------------------------------------------------- store
def test_store_post_delivers_fifo_to_waiting_getters():
    sim = Simulator()
    store = Store(sim, name="box")
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item, sim.now))

    for tag in ("g0", "g1", "g2"):
        sim.process(getter(tag))
    sim.run()

    def producer():
        yield sim.timeout(7)
        for item in ("x", "y", "z"):
            store.post(item)

    before = sim.events_processed
    sim.process(producer())
    sim.run()
    assert got == [("g0", "x", 7), ("g1", "y", 7), ("g2", "z", 7)]
    # producer poke + timeout + its completion, and the three getter
    # grants plus their processes' completions: no put events
    assert sim.events_processed - before == 3 + 3 + 3


def test_store_post_queues_items_for_later_getters():
    sim = Simulator()
    store = Store(sim, name="box")
    for item in range(3):
        store.post(item)
    assert store.items == (0, 1, 2)
    got = []

    def getter():
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    assert got == [0, 1, 2]


def test_store_post_on_a_full_bounded_store_waits_for_room():
    sim = Simulator()
    store = Store(sim, capacity=1, name="slot")
    store.post("a")
    store.post("b")              # full: parked until a get makes room
    assert store.items == ("a",)
    got = []

    def getter():
        got.append((yield store.get()))
        got.append((yield store.get()))

    sim.process(getter())
    sim.run()
    assert got == ["a", "b"]


# ------------------------------------------------------- posted writes
def _fabric_with_sink():
    sim = Simulator()
    fabric = PCIeFabric(sim, hop_latency_ns=150)
    landed = []

    class Sink(HostMemory):
        def mem_write(self, addr, length, data):
            landed.append((sim.now, addr))
            super().mem_write(addr, length, data)

    fabric.set_root_handler(Sink(sim, 1 << 20))
    return sim, fabric.attach("dev0"), landed


@pytest.mark.parametrize("length", [4, 4096])
def test_posted_write_lands_at_the_same_time_as_mem_write(length):
    sim_a, port_a, landed_a = _fabric_with_sink()
    sim_b, port_b, landed_b = _fabric_with_sink()
    for i in range(3):
        port_a.mem_write(0x1000 * i, length)
        port_b.post_write(0x1000 * i, length)
    sim_a.run()
    sim_b.run()
    assert landed_a == landed_b
    assert len(landed_b) == 3
    # a local write's leg is its completion: waiting on it dispatches
    # nothing beyond the legs the posted form dispatches
    assert sim_a.events_processed == sim_b.events_processed == 3


def test_posted_interrupt_fires_at_the_same_time_as_raise_vector():
    def world():
        sim = Simulator()
        fabric = PCIeFabric(sim, hop_latency_ns=150)
        irq = InterruptController(base=0xFEE0_0000)
        fabric.set_root_handler(irq)
        fired = []
        addr, data = irq.allocate(lambda v: fired.append((sim.now, v)))
        port = fabric.attach("dev0")
        pf = PCIeDevice("d").add_pf(0x10, 1, 2, bar_sizes={0: 0x1000})
        pf.msix.configure(0, addr, data)
        return sim, port, pf, fired

    sim_a, port_a, pf_a, fired_a = world()
    sim_b, port_b, pf_b, fired_b = world()
    assert pf_a.msix.raise_vector(port_a, 0) is not None
    assert pf_b.msix.post_vector(port_b, 0) is None
    sim_a.run()
    sim_b.run()
    assert fired_a == fired_b and len(fired_b) == 1
    # a masked vector posts nothing
    pf_b.msix.mask(0)
    pf_b.msix.post_vector(port_b, 0)
    sim_b.run()
    assert len(fired_b) == 1
