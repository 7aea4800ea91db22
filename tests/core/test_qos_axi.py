"""QoS module (Fig. 5) and AXI bus tests."""

import pytest

from repro.core import AXIBus, QoSLimits, QoSModule
from repro.sim import SimulationError, Simulator


def drain(sim, gates):
    done = []

    def waiter(i, gate):
        if gate is not None:  # None: admitted with no wait
            yield gate
        done.append((i, sim.now))

    for i, gate in enumerate(gates):
        sim.process(waiter(i, gate))
    sim.run()
    return done


def test_under_threshold_commands_pass_through():
    sim = Simulator()
    qos = QoSModule(sim)
    qos.configure("ns", QoSLimits(max_iops=1000.0, burst_ios=10))
    gates = [qos.admit("ns", 4096) for _ in range(5)]
    done = drain(sim, gates)
    assert all(t == 0 for _, t in done)
    assert qos.passed_count("ns") == 5
    assert qos.buffered_total("ns") == 0
    assert qos.buffer_depth("ns") == 0


def test_over_threshold_commands_enter_buffer_and_reschedule():
    sim = Simulator()
    qos = QoSModule(sim)
    # 1000 IOPS, burst 2: third+ must wait ~1ms each
    qos.configure("ns", QoSLimits(max_iops=1000.0, burst_ios=2))
    gates = [qos.admit("ns", 4096) for _ in range(4)]
    done = drain(sim, gates)
    times = [t for _, t in sorted(done)]
    assert times[0] == 0 and times[1] == 0
    assert times[2] == pytest.approx(1_000_000, rel=0.05)
    assert times[3] == pytest.approx(2_000_000, rel=0.05)
    assert qos.buffered_total("ns") == 2
    assert qos.buffer_depth("ns") == 0  # drained; total stays cumulative


def test_dispatcher_preserves_fifo_order():
    sim = Simulator()
    qos = QoSModule(sim)
    qos.configure("ns", QoSLimits(max_iops=10_000.0, burst_ios=1))
    gates = [qos.admit("ns", 4096) for _ in range(6)]
    done = drain(sim, gates)
    order = [i for i, _ in sorted(done, key=lambda x: (x[1], x[0]))]
    assert order == [0, 1, 2, 3, 4, 5]


def test_bandwidth_threshold_applies():
    sim = Simulator()
    qos = QoSModule(sim)
    # 100 MB/s cap, 1 MiB burst: 4 MiB of traffic takes ~30 ms extra
    qos.configure("ns", QoSLimits(
        max_bytes_per_sec=100e6, burst_bytes=1 << 20))
    gates = [qos.admit("ns", 1 << 20) for _ in range(4)]
    done = drain(sim, gates)
    last = max(t for _, t in done)
    assert last == pytest.approx(3 * (1 << 20) / 100e6 * 1e9, rel=0.05)


def test_qos_disabled_never_blocks():
    sim = Simulator()
    qos = QoSModule(sim, enabled=False)
    qos.configure("ns", QoSLimits(max_iops=1.0, burst_ios=1))
    gates = [qos.admit("ns", 1 << 20) for _ in range(100)]
    done = drain(sim, gates)
    assert all(t == 0 for _, t in done)


def test_unconfigured_namespace_is_unlimited():
    sim = Simulator()
    qos = QoSModule(sim)
    gates = [qos.admit("mystery", 4096) for _ in range(10)]
    done = drain(sim, gates)
    assert all(t == 0 for _, t in done)


def test_namespaces_are_isolated():
    sim = Simulator()
    qos = QoSModule(sim)
    qos.configure("slow", QoSLimits(max_iops=100.0, burst_ios=1))
    qos.configure("fast", QoSLimits(max_iops=1e6, burst_ios=1000))
    slow_gates = [qos.admit("slow", 4096) for _ in range(3)]
    fast_gates = [qos.admit("fast", 4096) for _ in range(3)]
    done_fast = drain(sim, fast_gates)
    assert all(t == 0 for _, t in done_fast)
    done_slow = drain(sim, slow_gates)
    assert max(t for _, t in done_slow) > 1_000_000


# --------------------------------------------------------------------- AXI
def test_axi_read_write_with_latency():
    sim = Simulator()
    axi = AXIBus(sim, access_ns=120)
    state = {"reg": 7}
    axi.register_read(0x0, lambda: state["reg"])
    axi.register_write(0x8, lambda v: state.update(reg=v))

    def proc():
        val = yield axi.read(0x0)
        assert val == 7
        yield axi.write(0x8, 42)
        val = yield axi.read(0x0)
        return (val, sim.now)

    val, t = sim.run(sim.process(proc()))
    assert val == 42
    assert t == 3 * 120
    assert axi.reads == 2 and axi.writes == 1


def test_axi_unbound_register_errors():
    sim = Simulator()
    axi = AXIBus(sim)
    with pytest.raises(SimulationError):
        axi.read(0x1000)
    with pytest.raises(SimulationError):
        axi.write(0x1000, 1)


def test_axi_double_registration_rejected():
    sim = Simulator()
    axi = AXIBus(sim)
    axi.register_read(0, lambda: 0)
    with pytest.raises(SimulationError):
        axi.register_read(0, lambda: 1)
