"""Pushdown hops share the engine's map and forward steps with host I/O.

Past the sandbox gate a program-issued command is ordinary tenant I/O:
a write to a thin clone takes its CoW fault, a write during a
migration pre-copy round marks its chunk dirty, and a hop whose data
buffer spilled to the CXL tier reads its bytes back from the tier.
"""

from repro.apps.minikv import encode_record
from repro.baselines import build_bmstore
from repro.core.lba_mapping import CHUNK_BYTES
from repro.nvme.spec import LBA_BYTES
from repro.push import cond_write_program, filter_program
from repro.sim.units import MIB, PAGE_SIZE


def drive(rig, gen):
    return rig.sim.run(rig.sim.process(gen))


def block(*records: bytes) -> bytes:
    """Pack records into one zero-padded device block."""
    return b"".join(records).ljust(LBA_BYTES, b"\x00")


def test_push_cond_write_to_thin_clone_takes_the_cow_fault():
    rig = build_bmstore(num_ssds=1, seed=11)
    golden = rig.baremetal_driver(rig.provision("golden", 8 * MIB))
    original = block(encode_record(b"k", b"\xab" * 64, 5))

    def setup():
        yield golden.write(5, 1, payload=original)

    drive(rig, setup())
    vm = rig.engine.volume_manager()
    vm.clone_volume("golden", "c0")
    clone = rig.baremetal_driver(rig.engine.bind_namespace("c0", 10))
    updated = block(encode_record(b"k", b"\xcd" * 64, 6))

    def flow():
        info = yield clone.install_push_program(cond_write_program([[0, 64]]))
        assert info.ok
        info = yield clone.push_exec({
            "carry": True, "lba": 5, "expected_seq": 5, "payload": updated,
        })
        golden_read = yield golden.read(5, 1, want_data=True)
        clone_read = yield clone.read(5, 1, want_data=True)
        return info, golden_read, clone_read

    info, golden_read, clone_read = drive(rig, flow())
    assert info.ok and info.data.committed
    assert golden_read.data == original  # the golden image is untouched
    assert clone_read.data == updated
    assert vm.faults_by_volume["c0"] == 1
    assert vm.faults_by_volume["golden"] == 0


def test_push_write_during_precopy_marks_its_chunk_dirty():
    rig = build_bmstore(num_ssds=1, seed=11)
    driver = rig.baremetal_driver(rig.provision("t", 2 * CHUNK_BYTES))
    ens = rig.engine.namespaces["t"]
    lba = ens.table.chunk_blocks + 4  # inside host chunk 1

    def flow():
        yield driver.install_push_program(cond_write_program([[lba, 1]]))
        yield driver.write(lba, 1, payload=block(encode_record(b"k", b"v", 5)))
        ens.dirty_chunks = set()  # a pre-copy round starts
        info = yield driver.push_exec({
            "carry": True, "lba": lba, "expected_seq": 5,
            "payload": block(encode_record(b"k", b"w", 6)),
        })
        return info

    info = drive(rig, flow())
    assert info.ok and info.data.committed
    assert ens.dirty_chunks == {1}


def test_push_hop_reads_back_a_buffer_spilled_to_cxl():
    rig = build_bmstore(num_ssds=1, seed=5, chip_memory_bytes=512 * 1024)
    driver = rig.baremetal_driver(rig.provision("t", 8 * MIB))
    records = [(b"a", b"1", 1), (b"b", b"2", 2)]
    stored = block(*(encode_record(*rec) for rec in records))

    def setup():
        yield driver.install_push_program(filter_program([[0, 64]]))
        yield driver.write(3, 1, payload=stored)

    drive(rig, setup())
    # hold on-card buffers until the pool spills: the hop's data buffer
    # is then placed in the CXL window
    tier = rig.engine.cxl_tier()
    pool = rig.engine._prp_pool
    held = []
    while tier.spills == 0:
        held.append(pool.get(PAGE_SIZE))
    spills_before = tier.spills

    def flow():
        info = yield driver.push_exec({
            "carry": True, "base_lba": 3, "nblocks": 1, "mode": "collect",
        })
        return info

    info = drive(rig, flow())
    assert tier.spills > spills_before  # the hop buffer really spilled
    assert info.ok
    assert info.data.count == 2
    assert info.data.records == records
