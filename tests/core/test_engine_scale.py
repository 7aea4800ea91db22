"""Scale tests: many front-end functions active on one engine."""


import pytest

from repro.baselines import build_bmstore
from repro.sim.units import GIB


def test_64_functions_bound_and_serving_concurrently():
    """64 VFs each with a one-chunk namespace, all doing I/O at once."""
    rig = build_bmstore(num_ssds=4)
    drivers = []
    for i in range(64):
        fn = rig.provision(f"t{i}", 64 * GIB, placement=[i % 4])
        drivers.append(rig.baremetal_driver(fn, num_io_queues=1, queue_depth=16))
    results = []

    def worker(idx, driver):
        info = yield driver.write(idx, 1)
        assert info.ok
        info = yield driver.read(idx, 1)
        results.append((idx, info.ok))

    procs = [rig.sim.process(worker(i, d)) for i, d in enumerate(drivers)]
    rig.sim.run(rig.sim.all_of(procs))
    assert len(results) == 64
    assert all(ok for _, ok in results)
    assert rig.engine.total_ios == 128
    # per-function accounting stayed separate
    for i in range(64):
        snap = rig.engine.monitor_snapshot(rig.engine.namespaces[f"t{i}"].bound_fn)
        assert snap["read_ops"] == 1 and snap["write_ops"] == 1


def test_axi_monitor_covers_all_128_functions():
    rig = build_bmstore(num_ssds=1)

    def flow():
        total = 0
        for fn_id in range(1, 129):
            base = rig.engine.AXI_FN_BASE + (fn_id - 1) * rig.engine.AXI_FN_STRIDE
            value = yield rig.engine.axi.read(base)  # read_ops register
            total += value
        return total

    assert rig.sim.run(rig.sim.process(flow())) == 0


def test_namespace_capacity_accounting_across_many_tenants():
    """4 drives hold 116 chunks; over-provisioning fails cleanly."""
    rig = build_bmstore(num_ssds=4)
    created = 0
    try:
        for i in range(200):
            # spread single-chunk namespaces across drives; the engine
            # only auto-assigns 124 VFs, so bind chunks unbound
            rig.engine.create_namespace(f"x{i}", 64 * GIB, placement=[i % 4])
            created += 1
    except Exception:
        pass
    # P4510 2 TB = 29 usable 64 GiB chunks per drive
    assert created == 4 * 29


def test_axi_monitor_reads_every_function_and_field():
    """The controller's I/O monitor reads each function's five counters
    from one register block; an unmapped offset has no register."""
    from repro.sim import SimulationError

    rig = build_bmstore(num_ssds=1)
    engine = rig.engine
    fns = [rig.provision(f"m{i}", 64 * GIB) for i in range(2)]
    drivers = [rig.baremetal_driver(fn) for fn in fns]

    def flow():
        for _ in range(3):
            yield drivers[0].read(0, 1)
        yield drivers[0].write(8, 2)
        yield drivers[1].write(0, 1)
        yield drivers[1].read(64 * GIB // 4096, 1)  # past the namespace: an error
        bodies = []
        for fn_id in range(1, engine.AXI_FN_COUNT + 1):
            bodies.append((yield from rig.controller.read_io_stats(fn_id)))
        return bodies

    bodies = rig.sim.run(rig.sim.process(flow()))
    assert [body["fn"] for body in bodies] == list(range(1, 129))
    assert rig.engine.axi.reads == 128 * 5
    expected = {fn.fn_id: engine.monitor_snapshot(fn.fn_id) for fn in fns}
    assert expected[fns[0].fn_id] == {"fn": fns[0].fn_id, "read_ops": 3, "write_ops": 1,
                                      "read_bytes": 3 * 4096, "write_bytes": 2 * 4096,
                                      "errors": 0}
    assert expected[fns[1].fn_id] == {"fn": fns[1].fn_id, "read_ops": 0, "write_ops": 1,
                                      "read_bytes": 0, "write_bytes": 4096, "errors": 1}
    for body in bodies:
        assert body == expected.get(body["fn"], engine.monitor_snapshot(body["fn"]))
        assert list(body) == ["fn", "read_ops", "write_ops", "read_bytes",
                              "write_bytes", "errors"]
    end = engine.AXI_FN_BASE + engine.AXI_FN_COUNT * engine.AXI_FN_STRIDE
    for addr in (0x10, engine.AXI_FN_BASE - 8, end, end + 8,
                 *(engine.AXI_FN_BASE + off for off in range(0x28, 0x40, 8)),
                 end - engine.AXI_FN_STRIDE + 0x38, engine.AXI_FN_BASE + 0x04):
        with pytest.raises(SimulationError, match="no read register"):
            engine.axi.read(addr)
    with pytest.raises(SimulationError, match="already bound"):
        engine.axi.register_read(engine.AXI_FN_BASE + 0x08, lambda: 0)
