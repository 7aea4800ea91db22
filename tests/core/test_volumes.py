"""CoW volume composition: snapshots, thin clones, faulting, refcounts.

The layer's contract: provisioning a clone copies *nothing* (metadata
only), the first write to a shared chunk faults exactly once, the last
holder writes in place, and the lba checker's refcount shadow makes a
premature free impossible.  The determinism tests pin the VOLUME_STAT
payload byte-for-byte across sequential and parallel experiment runs.
"""

import json

import pytest

from repro.baselines import build_bmstore
from repro.checks import InvariantViolation
from repro.core.lba_mapping import CHUNK_BYTES
from repro.experiments import volumes_demo
from repro.sim import SimulationError


def golden_rig(chunks=2, num_ssds=2):
    rig = build_bmstore(num_ssds=num_ssds, seed=11)
    rig.provision("golden", chunks * CHUNK_BYTES)
    return rig, rig.engine.volume_manager()


def clone_driver(rig, vm, source, key, fn_id):
    vm.clone_volume(source, key)
    fn = rig.engine.bind_namespace(key, fn_id)
    return rig.baremetal_driver(fn)


def run_one(rig, gen):
    return rig.sim.run(rig.sim.process(gen))


# ------------------------------------------------------------- thin clones
def test_clone_shares_chunks_and_copies_nothing():
    rig, vm = golden_rig(chunks=2)
    golden = rig.engine.namespaces["golden"]
    clone = vm.clone_volume("golden", "c0")
    assert clone.chunks == golden.chunks          # same physical chunks
    assert clone.table is not golden.table        # own mapping table
    assert vm.cow_faults == 0                     # nothing copied
    assert vm.shared_chunk_count() == 2
    for phys in golden.chunks:
        assert vm.refcounts[tuple(phys)] == 2


def test_clone_provisioning_cost_is_metadata_only():
    rig, vm = golden_rig(chunks=2)
    assert vm.clone_cost_ns(24) == 24 * vm.clone_chunk_meta_ns
    # versus any physical copy: 24 chunks of 64 GiB would be minutes
    assert vm.clone_cost_ns(24) < 10_000


def test_clone_name_collision_rejected():
    rig, vm = golden_rig()
    with pytest.raises(SimulationError, match="already in use"):
        vm.clone_volume("golden", "golden")
    with pytest.raises(SimulationError, match="no volume or snapshot"):
        vm.clone_volume("ghost", "c0")


# ------------------------------------------------------------- CoW faults
def test_first_write_faults_shared_chunk_apart():
    rig, vm = golden_rig(chunks=2)
    golden = rig.engine.namespaces["golden"]
    driver = clone_driver(rig, vm, "golden", "c0", fn_id=10)
    before = list(rig.engine.namespaces["c0"].chunks)

    def writes():
        info = yield driver.write(0, 8)
        assert info.ok

    run_one(rig, writes())
    clone = rig.engine.namespaces["c0"]
    assert vm.cow_faults == 1
    assert clone.chunks[0] != before[0]           # chunk 0 diverged
    assert clone.chunks[1] == before[1]           # chunk 1 still shared
    assert golden.chunks == before                # source untouched
    assert vm.refcounts[tuple(clone.chunks[0])] == 1
    assert vm.refcounts[tuple(golden.chunks[0])] == 1


def test_second_write_to_diverged_chunk_pays_no_cow_tax():
    rig, vm = golden_rig(chunks=1)
    driver = clone_driver(rig, vm, "golden", "c0", fn_id=10)

    def writes():
        yield driver.write(0, 8)
        t0 = rig.sim.now
        yield driver.write(8, 8)
        return rig.sim.now - t0

    run_one(rig, writes())
    assert vm.cow_faults == 1  # only the first write faulted


def test_last_holder_writes_in_place():
    rig, vm = golden_rig(chunks=1)
    driver = clone_driver(rig, vm, "golden", "c0", fn_id=10)
    rig.engine.delete_namespace("golden")         # clone is the last holder
    before = list(rig.engine.namespaces["c0"].chunks)

    def writes():
        info = yield driver.write(0, 8)
        assert info.ok

    run_one(rig, writes())
    assert vm.cow_faults == 0
    assert rig.engine.namespaces["c0"].chunks == before


# -------------------------------------------------------------- snapshots
def test_snapshot_pins_chunks_across_origin_deletion():
    rig, vm = golden_rig(chunks=2, num_ssds=2)
    golden_chunks = [tuple(p) for p in rig.engine.namespaces["golden"].chunks]
    vm.create_snapshot("golden", "golden@base")
    free_before = {i: len(f) for i, f in enumerate(rig.engine._free_chunks)}
    rig.engine.delete_namespace("golden")
    # the snapshot still references every chunk: none returned
    for ssd_id, free in enumerate(rig.engine._free_chunks):
        assert len(free) == free_before[ssd_id]
        for _, chunk in [p for p in golden_chunks if p[0] == ssd_id]:
            assert chunk not in free
    vm.delete_snapshot("golden@base")
    for ssd_id, chunk in golden_chunks:
        assert chunk in rig.engine._free_chunks[ssd_id]


def test_clone_from_snapshot_sees_point_in_time_state():
    rig, vm = golden_rig(chunks=1)
    vm.create_snapshot("golden", "golden@base")
    snap_chunks = vm.snapshots["golden@base"]["chunks"]
    driver = clone_driver(rig, vm, "golden", "direct", fn_id=10)

    def writes():
        yield driver.write(0, 8)

    run_one(rig, writes())  # diverge the live golden's chunk... no: diverges direct
    late = vm.clone_volume("golden@base", "from-snap")
    assert [tuple(p) for p in late.chunks] == list(snap_chunks)
    stat = vm.volume_stat("from-snap")
    assert stat["kind"] == "clone" and stat["parent"] == "golden@base"


def test_snapshot_name_collision_rejected():
    rig, vm = golden_rig()
    vm.create_snapshot("golden", "s0")
    with pytest.raises(SimulationError, match="already in use"):
        vm.create_snapshot("golden", "s0")
    with pytest.raises(SimulationError, match="no snapshot"):
        vm.delete_snapshot("ghost")


# ------------------------------------------------------- refcount checker
def test_checker_blocks_free_of_referenced_chunk():
    rig, vm = golden_rig(chunks=1)
    vm.clone_volume("golden", "c0")               # refcount 2
    phys = tuple(rig.engine.namespaces["golden"].chunks[0])
    ctx = rig.checks
    assert ctx is not None                        # conftest arms REPRO_CHECKS
    with pytest.raises(InvariantViolation, match="freed while refcount"):
        ctx.on_chunk_free(vm, phys)


def test_checker_shadow_tracks_incref_decref():
    rig, vm = golden_rig(chunks=1)
    ctx = rig.checks
    phys = tuple(rig.engine.namespaces["golden"].chunks[0])
    with pytest.raises(InvariantViolation, match="drifted from shadow"):
        ctx.on_chunk_incref(vm, phys, 99)


# ---------------------------------------------------------- determinism
def test_volume_stat_payload_deterministic_across_workers():
    """Same seed => byte-identical VOLUME_STAT payloads, seq vs parallel."""
    seq = volumes_demo.run(seed=7, cells=4, workers=None)
    par = volumes_demo.run(seed=7, cells=4, workers=4)
    a = json.dumps(seq.rows, sort_keys=True)
    b = json.dumps(par.rows, sort_keys=True)
    assert a == b
    assert all(row["cow_faults_pre"] == 0 for row in seq.rows)


def test_run_cell_reproducible():
    cell = volumes_demo.VolumeCell(name="x", seed=123)
    assert volumes_demo.run_cell(cell) == volumes_demo.run_cell(cell)
