"""CXL buffer tier: spill boundary, promote, borrowing, revocation,
NVMe-MI surfacing, and dormancy byte-identity."""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.baselines import build_bmstore
from repro.core.cxl import CXLBufferTier, CXLTimings
from repro.core.hooks import EngineHooks
from repro.host.memory import BufferPool, HostMemory, PAGE_SIZE
from repro.mgmt.nvme_mi import MIStatus
from repro.sim import SimulationError, Simulator
from repro.sim.units import MIB


class _StubEngine:
    """The minimal engine surface the tier touches, with a tiny chip."""

    def __init__(self, chip_pages=4, slots=2):
        self.sim = Simulator()
        self.name = "stub"
        self.obs = self.sim.obs
        self.chip_memory = HostMemory(
            self.sim, chip_pages * PAGE_SIZE, base=0x1000_0000,
            name="stub.chipmem",
        )
        self._prp_pool = BufferPool(self.chip_memory)
        self.adaptor = SimpleNamespace(
            slots=[SimpleNamespace(ssd=object()) for _ in range(slots)],
            drive=lambda ssd_id: self.adaptor.slots[ssd_id].ssd,
        )
        self.hooks = EngineHooks(self)


def small_tier(chip_pages=4, window_pages=2, slot_pages=2, promote_after=4):
    engine = _StubEngine(chip_pages=chip_pages)
    tier = CXLBufferTier(engine, CXLTimings(
        window_bytes=window_pages * PAGE_SIZE,
        slot_buffer_bytes=slot_pages * PAGE_SIZE,
        promote_after=promote_after,
    ))
    engine._prp_pool.tier = tier
    return engine, tier, engine._prp_pool


# ------------------------------------------------------------ spill boundary
def test_oom_to_spill_boundary_is_exact():
    """The first allocation past the chip budget spills; not one before."""
    engine, tier, pool = small_tier(chip_pages=4, window_pages=2)
    onchip = [pool.get(PAGE_SIZE) for _ in range(4)]
    assert all(engine.chip_memory.contains(a) for a in onchip)
    assert tier.spills == 0
    assert engine.chip_memory.allocated == engine.chip_memory.size
    spilled = pool.get(PAGE_SIZE)
    assert tier.window.contains(spilled)
    assert tier.spills == 1
    assert tier.hits_onchip == 4 and tier.hits_cxl == 1


def test_window_overflow_borrows_then_exhausts():
    """Window full -> bounded borrowing from slot buffers, slot by slot,
    then the original out-of-memory resurfaces."""
    engine, tier, pool = small_tier(chip_pages=1, window_pages=1,
                                    slot_pages=2)
    pool.get(PAGE_SIZE)                    # fills the chip
    a_window = pool.get(PAGE_SIZE)         # fills the window
    assert tier.window.contains(a_window)
    # each slot lends at most half its 2-page buffer = 1 page
    b0 = pool.get(PAGE_SIZE)
    b1 = pool.get(PAGE_SIZE)
    assert tier.share.grants[b0].ssd_id == 0
    assert tier.share.grants[b1].ssd_id == 1
    assert tier.borrowed_bytes == 2 * PAGE_SIZE
    with pytest.raises(SimulationError, match="share pool all exhausted"):
        pool.get(PAGE_SIZE)


def test_hot_set_prefers_oncard_and_promote_hands_back():
    """After a burst subsides, on-card serves retire idle spilled
    buffers (window first-in-bucket, borrowed grants given back)."""
    engine, tier, pool = small_tier(chip_pages=2, window_pages=1,
                                    slot_pages=2, promote_after=2)
    burst = [pool.get(PAGE_SIZE) for _ in range(4)]  # 2 chip, 1 win, 1 borrow
    assert tier.borrowed_bytes == PAGE_SIZE
    for addr in burst:
        pool.put(addr, PAGE_SIZE)
    # steady state: a working set of one buffer, always served on-card
    for _ in range(8):
        addr = pool.get(PAGE_SIZE)
        assert engine.chip_memory.contains(addr)
        pool.put(addr, PAGE_SIZE)
    assert tier.promotes == 2              # both spilled buffers retired
    assert tier.borrowed_bytes == 0        # the grant went back to slot 0
    assert not pool._free_tier.get(PAGE_SIZE)


def test_double_free_of_a_spilled_buffer_raises():
    engine, tier, pool = small_tier(chip_pages=1, window_pages=2)
    pool.get(PAGE_SIZE)                    # fills the chip
    spilled = pool.get(PAGE_SIZE)
    assert tier.window.contains(spilled)
    pool.put(spilled, PAGE_SIZE)
    with pytest.raises(SimulationError, match="double free"):
        pool.put(spilled, PAGE_SIZE)


def test_put_after_drop_addresses_purged_is_no_double_free():
    engine, tier, pool = small_tier(chip_pages=1, window_pages=2)
    pool.get(PAGE_SIZE)
    spilled = pool.get(PAGE_SIZE)
    pool.put(spilled, PAGE_SIZE)
    assert pool.drop_addresses({spilled}) == {spilled}
    assert pool.drop_addresses({spilled}) == set()
    pool.put(spilled, PAGE_SIZE)           # no longer pooled: a legal put
    assert pool._free_tier[PAGE_SIZE] == [spilled]


def test_promoted_buffer_can_be_spilled_and_freed_again():
    """A promote takes its buffer out of the pool: when the window hands
    the same address out again, returning it is no double free."""
    engine, tier, pool = small_tier(chip_pages=1, window_pages=1,
                                    promote_after=1)
    chip = pool.get(PAGE_SIZE)
    spilled = pool.get(PAGE_SIZE)
    pool.put(spilled, PAGE_SIZE)
    pool.put(chip, PAGE_SIZE)
    assert pool.get(PAGE_SIZE) == chip     # on-card serve promotes `spilled`
    assert tier.promotes == 1
    assert pool.get(PAGE_SIZE) == spilled  # recycled from the window
    pool.put(spilled, PAGE_SIZE)
    pool.put(chip, PAGE_SIZE)


def test_spill_determinism_two_runs_identical():
    def trace():
        engine, tier, pool = small_tier(chip_pages=2, window_pages=2,
                                        slot_pages=4)
        addrs = [pool.get(PAGE_SIZE) for _ in range(7)]
        for a in addrs[::2]:
            pool.put(a, PAGE_SIZE)
        addrs += [pool.get(PAGE_SIZE) for _ in range(3)]
        return addrs, tier.stat()

    assert trace() == trace()


# --------------------------------------------------------------- revocation
def test_revocation_purges_pooled_and_absorbs_inflight():
    engine, tier, pool = small_tier(chip_pages=1, window_pages=1,
                                    slot_pages=2)
    pool.get(PAGE_SIZE)
    pool.get(PAGE_SIZE)
    b0 = pool.get(PAGE_SIZE)               # borrowed from slot 0
    b1 = pool.get(PAGE_SIZE)               # borrowed from slot 1
    pool.put(b0, PAGE_SIZE)                # b0 pooled; b1 stays in flight
    tier.on_slot_removed(0)
    assert tier.share.revocations == 1
    # the pooled grant is purged: the pool can never hand b0 out again
    assert b0 not in pool._free_tier.get(PAGE_SIZE, [])
    tier.on_slot_removed(1)
    # the in-flight grant is absorbed when the command returns it
    pool.put(b1, PAGE_SIZE)
    assert tier.revoked_inflight == 1
    assert b1 not in pool._free_tier.get(PAGE_SIZE, [])


def test_surprise_remove_of_lending_slot_revokes_grants():
    """Full-rig revocation: the drive's DRAM leaves with the drive."""
    rig = build_bmstore(num_ssds=2, seed=5, chip_memory_bytes=512 * 1024)
    tier = rig.engine.cxl_tier(CXLTimings(
        window_bytes=PAGE_SIZE, slot_buffer_bytes=2 * PAGE_SIZE,
    ))
    pool = rig.engine._prp_pool
    grabbed = []
    while tier.borrowed_bytes < 2 * PAGE_SIZE:  # force lends off both slots
        grabbed.append(pool.get(PAGE_SIZE))
    lenders = {g.ssd_id for g in tier.share.grants.values()}
    assert lenders == {0, 1}
    removed = rig.engine.surprise_remove(1)
    assert removed is not None
    assert tier.share.revocations >= 1
    assert all(g.ssd_id != 1 for g in tier.share.grants.values())
    # a replacement drive lends again, at fresh addresses
    rig.engine.adaptor.slot_for(1).attach_ssd(removed)
    older = set(grabbed)
    fresh = pool.get(PAGE_SIZE)
    assert fresh not in older


# ------------------------------------------------------------------ NVMe-MI
def test_cxl_stat_unsupported_while_dormant_then_armed_oob():
    rig = build_bmstore(num_ssds=1)
    bodies = {}

    def proc():
        resp = yield rig.console.cxl_stat()
        bodies["dormant"] = (resp.status, dict(resp.body))
        resp = yield rig.console.enable_cxl()
        bodies["enable"] = (resp.status, dict(resp.body))
        resp = yield rig.console.cxl_stat()
        bodies["armed"] = (resp.status, dict(resp.body))

    rig.sim.run(rig.sim.process(proc(), name="mi"))
    assert bodies["dormant"][0] == int(MIStatus.UNSUPPORTED)
    assert bodies["enable"][0] == int(MIStatus.SUCCESS)
    assert bodies["armed"][0] == int(MIStatus.SUCCESS)
    assert bodies["armed"][1]["spills"] == 0
    assert bodies["armed"][1]["hit_ratio"] == 1.0
    assert rig.engine.cxl is not None


def test_obs_counters_surface_spills_and_borrowing():
    from repro.obs import MetricsRegistry

    obs = MetricsRegistry()
    rig = build_bmstore(num_ssds=2, seed=5, obs=obs,
                        chip_memory_bytes=512 * 1024)
    tier = rig.engine.cxl_tier(CXLTimings(
        window_bytes=PAGE_SIZE, slot_buffer_bytes=4 * PAGE_SIZE,
    ))
    pool = rig.engine._prp_pool
    while tier.borrowed_bytes == 0:
        pool.get(PAGE_SIZE)
    snap = obs.snapshot()
    assert snap["counters"]["cxl_spills{engine=bms}"] == tier.spills > 0
    assert snap["gauges"]["borrowed_bytes{engine=bms}"] \
        == tier.borrowed_bytes > 0
    assert 0.0 < snap["gauges"]["cxl_hit_ratio{engine=bms}"] < 1.0


# ------------------------------------------------------------------ checker
def test_checker_follows_buffers_across_tiers():
    """A double free of a *spilled* buffer must be charged against the
    CXL window's freed ranges, not chip memory's."""
    from repro.checks import CheckContext, InvariantViolation

    ctx = CheckContext(checkers=["prp"])
    engine, tier, pool = small_tier(chip_pages=1, window_pages=2)
    pool.checks = ctx
    pool.get(PAGE_SIZE)
    spilled = pool.get(PAGE_SIZE)
    assert tier.window.contains(spilled)
    pool.put(spilled, PAGE_SIZE)
    assert "stub.cxlmem" in ctx._freed
    assert spilled in ctx._freed["stub.cxlmem"].ranges
    with pytest.raises(InvariantViolation, match="double free"):
        # the checker fires on the owning memory before the inline guard
        pool.put(spilled, PAGE_SIZE)


# ---------------------------------------------------------------- dormancy
def test_dormancy_armed_but_unused_is_byte_identical():
    """An armed tier that never spills must not perturb the world."""

    def run_world(arm: bool):
        rig = build_bmstore(num_ssds=2, seed=9)
        if arm:
            rig.engine.cxl_tier()
        fn = rig.provision("t", 64 * MIB)
        driver = rig.baremetal_driver(fn)

        def proc():
            for k in range(40):
                if k % 3 == 0:
                    yield driver.write((k * 67) % 512, 8)
                else:
                    yield driver.read((k * 67) % 512, 32)

        rig.sim.run(rig.sim.process(proc(), name="w"))
        return rig.sim.now, rig.sim.events_processed, driver.stats.completed

    assert run_world(False) == run_world(True)


GOLDEN_CLEAN_SHA = "270d40e2bbf259c5276e4fa6dc9c36c57f526e63aa641fa52f6b32e9f1f8a925"
GOLDEN_HOT_REMOVE_SHA = "2068e64b44ec53c245e116a9050fd487adef7e58fef731906d161e3770fdfcd5"


@pytest.mark.parametrize("extra,sha", [
    ((), GOLDEN_CLEAN_SHA),
    (("--faults", "hot-remove"), GOLDEN_HOT_REMOVE_SHA),
], ids=["clean", "hot-remove"])
def test_dormant_runs_match_pre_cxl_golden(capsys, extra, sha):
    """``engine.cxl is None`` runs are byte-identical to the output this
    command produced before the CXL tier (and the buffer-pool bugfixes)
    landed.  The hot-remove digest was re-pinned once since, when a
    surprise-removed drive stopped executing the commands it had
    already fetched."""
    from repro.cli import main

    assert main(["fio", "--scheme", "bmstore", "--case", "rand-r-128",
                 "--seed", "7", "--json", *extra]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["ios"] > 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha
