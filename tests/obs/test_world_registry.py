"""Every world has a metrics registry.

A simulator starts with a counters-only :class:`MetricsRegistry`, and
arming another one replaces it; parts never see a world without one.
"""

from repro.baselines import build_bmstore
from repro.host.environment import Host
from repro.host.driver import NVMeDriver
from repro.nvme import NVMeSSD
from repro.obs import MetricsRegistry
from repro.sim import Simulator, StreamFactory
from repro.sim.units import GIB


def _read_loop(rig, driver, count=10):
    def flow():
        for i in range(count):
            yield driver.read(i, 1)

    rig.sim.run(rig.sim.process(flow()))


def test_bare_simulator_has_a_counters_registry():
    sim = Simulator()
    assert isinstance(sim.obs, MetricsRegistry)
    assert sim.obs.mode == "counters"
    assert Simulator().obs is not sim.obs  # one registry per world


def test_arm_replaces_the_registry_and_none_keeps_it():
    sim = Simulator()
    default = sim.obs
    sim.arm()
    assert sim.obs is default
    reg = MetricsRegistry()
    sim.arm(obs=reg)
    assert sim.obs is reg


def test_world_built_without_obs_counts_driver_and_namespace_io():
    rig = build_bmstore(num_ssds=1)
    assert rig.obs is rig.sim.obs and rig.obs.mode == "counters"
    fn = rig.provision("ns", 64 * GIB)
    driver = rig.baremetal_driver(fn)
    _read_loop(rig, driver)
    counters = rig.obs.snapshot()["counters"]
    submitted = sum(v for k, v in counters.items()
                    if k.startswith(f"driver_submitted{{driver={driver.name},"))
    assert submitted == 10
    assert counters["ns_ops{ns=ns,op=read}"] == 10


def test_io_monitor_answers_in_a_world_built_without_obs():
    rig = build_bmstore(num_ssds=1)
    fn = rig.provision("ns", 64 * GIB)
    _read_loop(rig, rig.baremetal_driver(fn))
    t0 = rig.sim.now

    def flow():
        return (yield rig.console.io_monitor())

    resp = rig.sim.run(rig.sim.process(flow()))
    assert resp.ok
    assert resp.body["counters"]["ns_ops{ns=ns,op=read}"] == 10
    assert resp.body["obs_mode"] == "counters"
    assert rig.sim.now - t0 >= rig.engine.timings.monitor_sample_ns


def test_parts_built_after_arming_write_into_the_armed_registry():
    sim = Simulator()
    default = sim.obs
    reg = MetricsRegistry(mode="counters")
    sim.arm(obs=reg)
    streams = StreamFactory(root_seed=7)
    host = Host(sim, streams)
    ssd = NVMeSSD(sim, host.fabric, streams, name="nvme0")
    driver = NVMeDriver(host, ssd, name="nvme0")

    def flow():
        for i in range(5):
            yield driver.read(i, 1)

    sim.run(sim.process(flow()))
    submitted = sum(c.value for c in reg.counters("driver_submitted").values())
    assert submitted == 5
    assert default.counters("driver_submitted") == {}
