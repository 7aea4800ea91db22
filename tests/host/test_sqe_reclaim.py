"""SQE pool reclaim: timed-out commands must not leak ring entries.

A timed-out command releases its queue slot while its stale SQE still
sits in the ring (nothing fetches during a passthrough outage).  The
entry is retired (counted dead, never recycled) at one of two
provably-safe points: its slot is overwritten by a later push, or the
queue is re-attached and the slot proven outside the live fetch window.  The soak test pins
the end-to-end property the pool stats exist for: the high-water mark
stabilizes across repeated fault storms instead of climbing.
"""

from repro.baselines import build_bmstore, build_native
from repro.faults import FaultPlan, get_preset
from repro.host.memory import HostMemory
from repro.nvme import SQE, SubmissionQueue
from repro.nvme.command import alloc_sqe, free_sqe, pool_stats
from repro.sim import Simulator
from repro.sim.units import MS, ms, us


def make_sq(depth=8):
    sim = Simulator()
    mem = HostMemory(sim, 1 << 20)
    return SubmissionQueue(mem, mem.alloc(depth * 64), depth, sqid=1)


# ------------------------------------------------------------ ring ledger
def test_push_overwrite_reclaims_leaked_slot():
    sq = make_sq(depth=8)
    reclaimed = []
    sq.on_reclaim = reclaimed.append
    for i in range(4):
        sq.push(SQE(opcode=2, cid=i, nsid=1))
    for _ in range(4):
        sq.consume_addr()
    # the command at slot 2 timed out: its entry is stranded
    sq.note_leaked(2, alloc_sqe(opcode=2, cid=99, nsid=1))
    outstanding_before = pool_stats()["sqe_outstanding"]
    # seven more pushes wrap the tail past slot 2
    for i in range(7):
        sq.push(SQE(opcode=2, cid=10 + i, nsid=1))
        sq.consume_addr()
    assert sq.leak_reclaims == 1
    assert reclaimed == [1]
    assert pool_stats()["sqe_outstanding"] == outstanding_before - 1


def test_reclaimed_sqe_is_never_handed_to_a_new_command():
    # a drive may still be executing a timed-out command it fetched
    # before the timeout: recycling its entry would rewrite the cid and
    # PRPs under that execution (its CQE would complete the new command)
    sq = make_sq(depth=8)
    for i in range(4):
        sq.push(SQE(opcode=2, cid=i, nsid=1))
        sq.consume_addr()
    stale = alloc_sqe(opcode=2, cid=99, nsid=1, prp2=0x5000)
    sq.note_leaked(2, stale)
    for i in range(7):
        sq.push(SQE(opcode=2, cid=10 + i, nsid=1))
        sq.consume_addr()
    assert sq.leak_reclaims == 1
    fresh = alloc_sqe(opcode=2, cid=7, nsid=1, prp2=0x9000)
    assert fresh is not stale
    assert (stale.cid, stale.prp2) == (99, 0x5000)
    free_sqe(fresh)


def test_reclaim_dead_slots_spares_the_live_window():
    sq = make_sq(depth=8)
    for i in range(6):
        sq.push(SQE(opcode=2, cid=i, nsid=1))
    for _ in range(4):
        sq.consume_addr()
    # live window is [4, 6): slot 5 may still be fetched, slot 1 cannot
    live = alloc_sqe(opcode=2, cid=50, nsid=1)
    dead = alloc_sqe(opcode=2, cid=51, nsid=1)
    sq.note_leaked(5, live)
    sq.note_leaked(1, dead)
    reclaimed = []
    sq.on_reclaim = reclaimed.append
    assert sq.reclaim_dead_slots() == 1
    assert reclaimed == [1]
    assert 5 in sq._leaked and 1 not in sq._leaked
    assert sq.reclaim_dead_slots() == 0  # idempotent on the survivor


def test_driver_counts_reclaims_after_timeout_storm():
    plan = (FaultPlan()
            .cmd_drop("nvme0", at_ns=0, count=3)
            .with_driver_policy(timeout_ns=ms(1), max_retries=4,
                                backoff_base_ns=us(100), backoff_cap_ns=us(400)))
    # one shallow ring so the retries wrap the tail past the leaked slots
    rig = build_native(1, faults=plan, queue_depth=4, num_io_queues=1)
    driver = rig.driver()

    def flow():
        for lba in range(6):
            info = yield driver.read(lba, 1)
            assert info.ok

    rig.sim.run(rig.sim.process(flow()))
    assert driver.stats.timeouts >= 3
    # every stranded entry was recovered once its slot wrapped
    assert driver.stats.sqe_reclaims == driver.stats.timeouts


# ------------------------------------------------------------------- soak
def _storm(depth=32):
    """One passthrough hot-remove storm on a shallow single ring.

    The yank strands ~ring-depth SQEs (nothing fetches during a
    passthrough outage); the re-seat plus the post-recovery traffic
    must recover every one of them through the two reclaim points.
    """
    rig = build_bmstore(num_ssds=1, seed=7,
                        faults=get_preset("pt-hot-remove"))
    fn = rig.provision("ns0", rig.engine.chunk_bytes, placement=[0])
    rig.engine.enable_passthrough("ns0")
    driver = rig.baremetal_driver(fn, queue_depth=depth, num_io_queues=1)

    def worker(tag):
        lba = tag * 131
        while rig.sim.now < 25 * MS:
            yield driver.read(lba % driver.num_blocks, 1)
            lba += 997

    procs = [rig.sim.process(worker(t), name=f"w{t}") for t in range(16)]
    for proc in procs:
        rig.sim.run(proc)
    return driver.stats


def test_soak_pool_high_water_mark_stabilizes():
    """Repeated hot-remove storms: without reclaim every storm leaks
    every timed-out SQE and the pool's outstanding count climbs by
    hundreds per run; with it each torn-down world leaves at most a
    ring's worth of stragglers (leaked entries whose slot stayed in
    the live window through teardown).  Pool counters are process-wide
    and monotonic, so the soak measures per-storm growth, not
    absolutes."""
    leftovers = []
    for n in range(3):
        before = pool_stats()["sqe_outstanding"]
        stats = _storm()
        leftovers.append(pool_stats()["sqe_outstanding"] - before)
        assert stats.timeouts > 0
        # every aborted attempt strands one SQE; everything beyond a
        # ring's worth of them was recovered before the world ended
        assert stats.sqe_reclaims > 0
        assert stats.sqe_reclaims >= stats.aborts - 32
    # high-water mark stabilizes: identical worlds leave identical,
    # ring-bounded residue instead of accumulating their timeouts
    assert leftovers[0] == leftovers[1] == leftovers[2]
    assert leftovers[0] <= 32
