"""CheckContext unit tests: binding, coverage, and violation detection."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checks import CHECKER_NAMES, CheckContext, InvariantViolation, resolve_checks
from repro.checks.runtime import _FreedRanges
from repro.core.lba_mapping import MappingEntry, MappingTable
from repro.host.memory import PAGE_SIZE, BufferPool, HostMemory
from repro.nvme import CQE, SQE, CompletionQueue, SubmissionQueue
from repro.obs import MetricsRegistry
from repro.sim import SimulationError, Simulator


def make_mem(ctx=None):
    """A memory on a simulator with ``ctx`` armed (parts built on it
    read their checkers there)."""
    sim = Simulator()
    sim.arm(checks=ctx)
    return sim, HostMemory(sim, 1 << 30)


# -------------------------------------------------------------- resolve_checks
def test_resolve_checks_spellings():
    assert resolve_checks(False) is None
    assert resolve_checks("off") is None
    assert resolve_checks("0") is None
    assert resolve_checks([]) is None
    for spec in (True, "all", "1", "on"):
        ctx = resolve_checks(spec)
        assert ctx is not None and ctx.enabled == frozenset(CHECKER_NAMES)
    ctx = resolve_checks("ring, qos")
    assert ctx.enabled == frozenset({"ring", "qos"})
    ctx = resolve_checks(["lba"])
    assert ctx.enabled == frozenset({"lba"})


def test_resolve_checks_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHECKS", raising=False)
    assert resolve_checks(None) is None
    monkeypatch.setenv("REPRO_CHECKS", "all")
    assert resolve_checks(None).enabled == frozenset(CHECKER_NAMES)
    monkeypatch.setenv("REPRO_CHECKS", "prp,kernel")
    assert resolve_checks(None).enabled == frozenset({"prp", "kernel"})
    monkeypatch.setenv("REPRO_CHECKS", "off")
    assert resolve_checks(None) is None


def test_resolve_checks_passthrough_and_unknown_name():
    ctx = CheckContext(checkers=["ring"])
    assert resolve_checks(ctx) is ctx
    with pytest.raises(ValueError, match="unknown checker"):
        CheckContext(checkers=["rings"])


def test_violation_is_simulation_error_and_carries_context():
    err = InvariantViolation("ring", "boom", head=3, tail=4)
    assert isinstance(err, SimulationError)
    assert err.checker == "ring"
    assert err.context == {"head": 3, "tail": 4}
    text = str(err)
    assert "[ring] boom" in text and "head=3" in text


def test_counts_flow_into_obs_counters():
    obs = MetricsRegistry()
    ctx = CheckContext(checkers=["ring"], obs=obs)
    _, mem = make_mem(ctx)
    sq = SubmissionQueue(mem, mem.alloc(8 * 64), 8, sqid=1)
    sq.push(SQE(opcode=2, cid=0, nsid=1))
    sq.consume_addr()
    assert ctx.summary() == {"ring": 2}
    ((labels, counter),) = obs.counters("invariant_checks").items()
    assert counter.value == 2 and dict(labels)["checker"] == "ring"


def test_bind_respects_checker_subset():
    ctx = CheckContext(checkers=["lba"])
    _, mem = make_mem(ctx)
    # ring checker not armed: the ring must stay dormant
    sq = SubmissionQueue(mem, mem.alloc(8 * 64), 8, sqid=1)
    assert sq.checks is None


# ------------------------------------------------------------------ ring
def ring_world():
    ctx = CheckContext(checkers=["ring"])
    sim, mem = make_mem(ctx)
    cq = CompletionQueue(mem, mem.alloc(4 * 16), 4, cqid=1)
    return ctx, cq


def test_ring_checker_clean_across_wraps():
    ctx, cq = ring_world()
    for i in range(12):  # three full revolutions: both phases seen twice
        cq.post_slot(CQE(cid=i))
        assert cq.poll().cid == i
    assert ctx.summary()["ring"] == 24
    assert ctx.violations == 0


def test_ring_checker_detects_cq_overflow_when_guard_removed(monkeypatch):
    """Revert-detection: with the post_slot full-guard disabled, the ring
    checker still catches the silent overwrite the guard exists for."""
    monkeypatch.setattr(CompletionQueue, "is_full", property(lambda self: False))
    ctx, cq = ring_world()
    for i in range(3):  # depth 4 holds at most 3 unconsumed completions
        cq.post_slot(CQE(cid=i))
    with pytest.raises(InvariantViolation, match="overflow") as exc:
        cq.post_slot(CQE(cid=3))
    assert exc.value.checker == "ring"
    assert exc.value.context["unconsumed"] == 3


def test_ring_checker_detects_stale_phase_poll():
    ctx, cq = ring_world()
    cq.post_slot(CQE(cid=0))
    assert cq.poll().cid == 0
    # hand the checker a completion whose phase contradicts the host's
    # expectation; a correct poll() would have skipped it
    with pytest.raises(InvariantViolation, match="never posted"):
        ctx.on_cq_poll(cq, CQE(cid=9, phase=1))


def test_ring_checker_detects_underflow():
    ctx = CheckContext(checkers=["ring"])
    sim, mem = make_mem(ctx)
    sq = SubmissionQueue(mem, mem.alloc(4 * 64), 4, sqid=1)
    with pytest.raises(InvariantViolation, match="underflow"):
        sq.consume_addr()


# ------------------------------------------------------------------- prp
def test_prp_checker_accepts_offset_first_entry():
    ctx = CheckContext(checkers=["prp"])
    pages = [PAGE_SIZE + 100, 2 * PAGE_SIZE, 3 * PAGE_SIZE]
    ctx.on_prp_chain(pages, 2 * PAGE_SIZE, where="t")
    assert ctx.summary()["prp"] == 1


def test_prp_checker_rejects_unaligned_tail_entry():
    ctx = CheckContext(checkers=["prp"])
    with pytest.raises(InvariantViolation, match="not page-aligned"):
        ctx.on_prp_chain([0, PAGE_SIZE + 8], 2 * PAGE_SIZE, where="t")


def test_prp_checker_rejects_short_chain():
    ctx = CheckContext(checkers=["prp"])
    with pytest.raises(InvariantViolation, match="cover"):
        ctx.on_prp_chain([0, PAGE_SIZE], 3 * PAGE_SIZE, where="t")


def test_prp_checker_reads_runs_entry_by_entry():
    ctx = CheckContext(checkers=["prp"])
    ctx.on_prp_chain(range(0, 4 * PAGE_SIZE, PAGE_SIZE), 4 * PAGE_SIZE, where="t")
    with pytest.raises(InvariantViolation, match="not page-aligned"):
        ctx.on_prp_chain(range(0, 3 * PAGE_SIZE, PAGE_SIZE + 8),
                         3 * PAGE_SIZE, where="t")
    with pytest.raises(InvariantViolation, match="cover"):
        ctx.on_prp_chain(range(0, 2 * PAGE_SIZE, PAGE_SIZE), 3 * PAGE_SIZE,
                         where="t")


def test_prp_checker_detects_double_free_and_freed_reuse():
    ctx = CheckContext(checkers=["prp"])
    sim, mem = make_mem(ctx)
    pool = BufferPool(mem)
    addr = pool.get(PAGE_SIZE)
    pool.put(addr, PAGE_SIZE)
    with pytest.raises(InvariantViolation, match="double free"):
        pool.put(addr, PAGE_SIZE)
    # a chain into the freed range is flagged...
    with pytest.raises(InvariantViolation, match="freed"):
        ctx.on_prp_chain([addr], PAGE_SIZE, memory_name=mem.name, where="t")
    # ...until the pool recycles the buffer
    assert pool.get(PAGE_SIZE) == addr
    ctx.on_prp_chain([addr], PAGE_SIZE, memory_name=mem.name, where="t")


def _scan_covering(ranges: dict, addr: int):
    """The reference answer: the first range, in free order, holding addr."""
    for start, nbytes in ranges.items():
        if start <= addr < start + nbytes:
            return start, nbytes
    return None


_PAGES = st.integers(0, 63).map(lambda page: page * PAGE_SIZE)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.tuples(st.just("free"), _PAGES, st.integers(1, 8).map(lambda n: n * PAGE_SIZE)),
    st.tuples(st.just("alloc"), _PAGES, st.just(0)),
    st.tuples(st.just("probe"), st.integers(0, 80 * PAGE_SIZE), st.just(0)),
), max_size=60))
def test_freed_ranges_bisect_matches_the_linear_scan(ops):
    """Overlapping frees (a region re-freed at another size) resolve to
    the earliest-freed range, exactly as a scan in free order does."""
    freed, model = _FreedRanges(), {}
    for op, addr, nbytes in ops:
        if op == "free":
            assert freed.free(addr, nbytes) == (addr not in model)
            model.setdefault(addr, nbytes)
        elif op == "alloc":
            freed.alloc(addr)
            model.pop(addr, None)
        assert freed.ranges == model
        assert list(freed.ranges) == list(model)
        probes = (addr, addr - 1, addr + PAGE_SIZE - 1, addr + 3 * PAGE_SIZE)
        for probe in probes:
            assert freed.covering(probe) == _scan_covering(model, probe)


# ------------------------------------------------------------------- lba
def test_lba_checker_detects_non_injective_mapping():
    ctx = CheckContext(checkers=["lba"])
    table = MappingTable(chunk_blocks=1 << 20)
    table.checks = ctx
    table.set_entry(0, MappingEntry(base_chunk=5, ssd_id=1))
    table.set_entry(1, MappingEntry(base_chunk=6, ssd_id=1))
    with pytest.raises(InvariantViolation, match="injective") as exc:
        table.set_entry(2, MappingEntry(base_chunk=5, ssd_id=1))
    assert exc.value.checker == "lba"


def test_lba_checker_allows_remap_after_clear():
    ctx = CheckContext(checkers=["lba"])
    table = MappingTable(chunk_blocks=1 << 20)
    table.checks = ctx
    table.set_entry(0, MappingEntry(base_chunk=5, ssd_id=1))
    table.clear_entry(0)
    table.set_entry(3, MappingEntry(base_chunk=5, ssd_id=1))  # chunk is free again
    # and re-pointing an index releases its old physical chunk
    table.set_entry(3, MappingEntry(base_chunk=7, ssd_id=1))
    table.set_entry(4, MappingEntry(base_chunk=5, ssd_id=1))


def test_lba_checker_validates_translation_outputs():
    ctx = CheckContext(checkers=["lba"])
    table = MappingTable(chunk_blocks=1 << 20)
    table.checks = ctx
    table.set_entry(0, MappingEntry(base_chunk=2, ssd_id=3))
    ssd_id, plba = table.translate(12345)
    assert (ssd_id, plba % table.chunk_blocks) == (3, 12345)
    with pytest.raises(InvariantViolation, match="chunk-granular"):
        ctx.on_lba_translate(table, 12345, 3, 12346)
    with pytest.raises(InvariantViolation, match="2-bit"):
        ctx.on_lba_translate(table, 0, 4, 0)


# ---------------------------------------------------------------- kernel
def test_kernel_checker_counts_dispatches():
    sim = Simulator()
    ctx = CheckContext(checkers=["kernel"])
    sim.arm(checks=ctx)

    def proc():
        for _ in range(5):
            yield sim.timeout(10)

    sim.process(proc())
    sim.run()
    assert ctx.summary()["kernel"] > 0
    assert ctx.violations == 0


def test_kernel_checker_detects_backwards_clock():
    sim = Simulator()
    ctx = CheckContext(checkers=["kernel"])
    sim.arm(checks=ctx)
    event = sim.event(name="probe")
    sim.now = 100
    ctx.on_event_dispatch(sim, event)
    sim.now = 50
    with pytest.raises(InvariantViolation, match="backwards"):
        ctx.on_event_dispatch(sim, event)
