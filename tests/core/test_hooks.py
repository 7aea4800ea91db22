"""The engine's one seam for optional features (``core/hooks.py``).

A dormant engine registers nothing; each armed feature registers its
own hooks and vendor opcodes.  The armed worlds' outputs are pinned,
and all features run armed together in one world.
"""

import hashlib
import json

import pytest

from repro.baselines import build_bmstore
from repro.checks import CheckContext
from repro.checks.runtime import CHECKER_NAMES
from repro.core.cxl import CXLTimings
from repro.core.hooks import CORE_OPCODES, EngineHooks
from repro.core.qos import QoSLimits
from repro.faults.plan import DriverFaultPolicy
from repro.host.driver import NVMeDriver
from repro.nvme.spec import StatusCode
from repro.push import chase_program, filter_program
from repro.sim.units import MIB, MS

# sha256 of ``repro <cmd> --cells 4 --seed 7 --json``, recorded before
# the features moved onto the hook registry
ARMED_GOLDENS = {
    "volumes": "ebcb7c1e6f6fa0fa15ca3833ebd489020fc54f678c4d964f09be0f9f799fec9a",
    "push": "9a58a34e168c4f9b1ccf871aa6390dadc3ba4fbe4a176ef6e1997bb4c63c5256",
    "cxl": "359214c6b077970044e877c45b4c62fc72698d6a461db292058b199a04eb4f49",
}


@pytest.mark.parametrize("command", sorted(ARMED_GOLDENS))
def test_armed_world_matches_golden(capsys, monkeypatch, command):
    from repro.cli import main

    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert main([command, "--cells", "4", "--seed", "7", "--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["rows"]
    assert hashlib.sha256(out.encode()).hexdigest() == ARMED_GOLDENS[command]


def _table(hooks: EngineHooks) -> set:
    return {(plane, op) for plane, ops in hooks.opcodes.items() for op in ops}


def test_dormant_engine_registers_nothing():
    hooks = build_bmstore(num_ssds=1).engine.hooks
    assert hooks.write == hooks.ns_create == hooks.ns_teardown == []
    assert hooks.slot_removal == hooks.slot_attach == []
    assert _table(hooks) == set(CORE_OPCODES)


def test_deleting_a_namespace_drops_its_program_and_qos_limits():
    rig = build_bmstore(num_ssds=1)
    engine = rig.engine
    engine.create_namespace("t", 8 * MIB, limits=QoSLimits(max_iops=1000))
    engine.push_manager().install("t", chase_program([[0, 2048]]))
    engine.delete_namespace("t")
    engine.create_namespace("t", 1 * MIB)
    assert "t" not in engine.push.programs
    assert engine.qos.limits_for("t") is None


def test_held_commands_drain_after_their_namespace_is_deleted():
    rig = build_bmstore(num_ssds=1)
    fn = rig.provision("t", 8 * MIB, limits=QoSLimits(max_iops=20_000))
    driver = rig.baremetal_driver(fn)
    events = [driver.read(i, 1) for i in range(128)]  # over the burst
    rig.sim.run(until=rig.sim.now + 120_000)
    assert rig.engine.qos.buffer_depth("t") > 0
    rig.engine.delete_namespace("t")
    rig.sim.run(until=rig.sim.now + 50 * MS)
    assert all(ev.triggered and ev.value.ok for ev in events)


# ------------------------------------------------------------ all armed
def _all_armed_world():
    """Volumes (snapshot + clone), push, a spilling CXL tier and a
    passthrough namespace on the second drive, every checker armed."""
    probe = build_bmstore(num_ssds=2, seed=7)
    rig = build_bmstore(
        num_ssds=2, seed=7, checks=CheckContext(),
        chip_memory_bytes=probe.engine.chip_memory.allocated + 96 * 1024,
    )
    engine = rig.engine
    # the window overflows into borrowed slot buffers, which the
    # surprise removal then revokes
    tier = engine.cxl_tier(CXLTimings(window_bytes=256 * 1024,
                                      slot_buffer_bytes=96 * 1024))
    golden = rig.provision("golden", 2 * engine.chunk_bytes, placement=[0, 0])
    volumes = engine.volume_manager()
    volumes.create_snapshot("golden", "golden@base")
    volumes.clone_volume("golden@base", "clone")
    kv = rig.provision("kv", 8 * MIB, placement=[0],
                       limits=QoSLimits(max_iops=20_000))
    pt = rig.provision("pt", engine.chunk_bytes, placement=[1])
    engine.passthrough_mode().enable("pt")
    drivers = {
        "golden": rig.baremetal_driver(golden),
        "clone": rig.baremetal_driver(engine.bind_namespace("clone", 40)),
        "kv": rig.baremetal_driver(kv),
        # passthrough recovers only by driver timeout
        "pt": NVMeDriver(rig.host, pt, name="pt",
                         fault_policy=DriverFaultPolicy(
                             timeout_ns=4 * MS, max_retries=2,
                             backoff_base_ns=250_000, backoff_cap_ns=MS)),
    }
    return rig, tier, volumes, drivers


def test_all_features_armed_together_complete_every_command():
    rig, tier, volumes, drivers = _all_armed_world()
    engine, sim = rig.engine, rig.sim
    order = []

    def traced(hook):
        def run(ssd_id, *removed):
            seated = engine.adaptor.drive(ssd_id) is not None
            order.append((hook.__qualname__, seated))
            hook(ssd_id, *removed)
        return run

    engine.hooks.slot_removal[:] = [
        (before and traced(before), traced(after))
        for before, after in engine.hooks.slot_removal]
    infos = []

    def io(submit):
        infos.append((yield submit()))

    def flow():
        info = yield drivers["kv"].install_push_program(filter_program([[0, 64]]))
        assert info.ok
        for i in range(32):
            for name, driver in sorted(drivers.items()):
                op = "write" if i % 3 == 0 else "read"
                blocks = 32 if name == "golden" else 1
                sim.spawn(io(lambda d=driver, op=op, lba=(i * 97) % 256, n=blocks:
                             getattr(d, op)(lba, n)))
            sim.spawn(io(lambda: drivers["kv"].push_exec(
                {"carry": False, "base_lba": 0, "nblocks": 4})))
            yield sim.timeout(20_000)
        removed = engine.surprise_remove(1)
        for i in range(8):
            sim.spawn(io(lambda lba=i: drivers["pt"].read(lba, 1)))
        yield sim.timeout(60 * MS)
        engine.adaptor.slot_for(1).attach_ssd(removed)  # re-maps the queues
        return (yield drivers["pt"].read(0, 1))

    reseated = sim.run(sim.process(flow()))

    assert len(infos) == 32 * 5 + 8
    assert {info.status for info in infos} <= {int(code) for code in StatusCode}
    # the yanked passthrough I/O fails by driver timeout, nothing else
    assert sum(not info.ok for info in infos) == drivers["pt"].stats.retries_exhausted
    assert reseated.ok
    # the passthrough translation dies while the drive is still seated;
    # queue detach and grant revocation follow once the slot emptied
    assert order[0] == ("Passthrough._kill_translations", True)
    assert sorted(order[1:]) == [("CXLBufferTier.on_slot_removed", False),
                                 ("Passthrough._detach_queues", False)]
    assert volumes.cow_faults == 2
    assert tier.spills > 0 and tier.share.revocations > 0
    assert engine.push.stat("kv")["execs"] == 32
    coverage = rig.checks.summary()
    assert all(coverage[name] > 0 for name in CHECKER_NAMES), coverage
