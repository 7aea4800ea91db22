"""Queue-ring (phase bits, wrap-around) and PRP construction tests."""

import pytest
from hypothesis import given, strategies as st

from repro.core import encode_global_prp, encode_global_prps
from repro.host.memory import PAGE_SIZE, BufferPool, HostMemory
from repro.nvme import (
    CQE,
    SQE,
    CompletionQueue,
    SubmissionQueue,
    build_prps,
    page_spans,
    pages_for,
    prp_list_bytes,
    release_prps,
    walk_prps,
)
from repro.nvme.prp import PRPList
from repro.sim import SimulationError, Simulator


def make_mem():
    sim = Simulator()
    return sim, HostMemory(sim, 1 << 30)


# ------------------------------------------------------------------ SQ ring
def test_sq_push_consume_fifo():
    sim, mem = make_mem()
    sq = SubmissionQueue(mem, mem.alloc(8 * 64), 8, sqid=1)
    for i in range(5):
        sq.push(SQE(opcode=2, cid=i, nsid=1))
    got = []
    while not sq.is_empty:
        addr = sq.consume_addr()
        got.append(mem.load_obj(addr).cid)
    assert got == [0, 1, 2, 3, 4]


def test_sq_full_detection_and_wrap():
    sim, mem = make_mem()
    sq = SubmissionQueue(mem, mem.alloc(4 * 64), 4, sqid=1)
    for i in range(3):
        sq.push(SQE(opcode=2, cid=i, nsid=1))
    assert sq.is_full
    with pytest.raises(SimulationError, match="full"):
        sq.push(SQE(opcode=2, cid=9, nsid=1))
    sq.consume_addr()
    assert not sq.is_full
    sq.push(SQE(opcode=2, cid=3, nsid=1))  # wraps
    assert sq.outstanding() == 3


def test_sq_empty_consume_rejected():
    sim, mem = make_mem()
    sq = SubmissionQueue(mem, mem.alloc(4 * 64), 4, sqid=1)
    with pytest.raises(SimulationError, match="empty"):
        sq.consume_addr()


def test_sq_depth_minimum():
    sim, mem = make_mem()
    with pytest.raises(SimulationError):
        SubmissionQueue(mem, 0, 1, sqid=1)


# ------------------------------------------------------------------ CQ ring
def test_cq_phase_bit_polling():
    sim, mem = make_mem()
    cq = CompletionQueue(mem, mem.alloc(4 * 16), 4, cqid=1)
    assert cq.poll() is None  # nothing posted
    cq.post_slot(CQE(cid=1))
    cqe = cq.poll()
    assert cqe is not None and cqe.cid == 1 and cqe.phase == 1
    assert cq.poll() is None


def test_cq_phase_flips_on_wrap():
    sim, mem = make_mem()
    cq = CompletionQueue(mem, mem.alloc(4 * 16), 4, cqid=1)
    seen = []
    for round_ in range(3):  # wraps twice
        for i in range(4):
            cq.post_slot(CQE(cid=round_ * 4 + i))
            cqe = cq.poll()
            seen.append((cqe.cid, cqe.phase))
    cids = [c for c, _ in seen]
    assert cids == list(range(12))
    phases = [p for _, p in seen]
    assert phases[:4] == [1] * 4 and phases[4:8] == [0] * 4 and phases[8:] == [1] * 4


def test_cq_stale_entry_not_consumed():
    sim, mem = make_mem()
    cq = CompletionQueue(mem, mem.alloc(2 * 16), 2, cqid=1)
    cq.post_slot(CQE(cid=1))
    assert cq.poll().cid == 1
    cq.post_slot(CQE(cid=2))
    assert cq.poll().cid == 2
    # ring wrapped; slot 0 still holds the old phase-1 entry, but the
    # host now expects phase 0 -> must not re-consume
    assert cq.poll() is None


def test_cq_full_post_rejected():
    sim, mem = make_mem()
    cq = CompletionQueue(mem, mem.alloc(2 * 16), 2, cqid=1)
    cq.post_slot(CQE(cid=1))
    # depth 2 holds at most one unconsumed completion; a second post
    # would overwrite the entry the host has not seen yet
    with pytest.raises(SimulationError, match="full"):
        cq.post_slot(CQE(cid=2))
    assert cq.poll().cid == 1
    cq.post_slot(CQE(cid=2))  # space again after the host consumed
    assert cq.poll().cid == 2


# --------------------------------------------------------------------- PRPs
def test_pages_for_unaligned_buffer():
    pages = pages_for(PAGE_SIZE + 100, 2 * PAGE_SIZE)
    assert pages == [PAGE_SIZE + 100, 2 * PAGE_SIZE, 3 * PAGE_SIZE]


def test_pages_for_zero_length():
    assert pages_for(0x1000, 0) == []


def test_build_prps_single_page():
    sim, mem = make_mem()
    buf = mem.alloc(PAGE_SIZE)
    prp1, prp2 = build_prps(BufferPool(mem), pages_for(buf, PAGE_SIZE))
    assert prp1 == buf and prp2 == 0


def test_build_prps_two_pages_direct():
    sim, mem = make_mem()
    buf = mem.alloc(2 * PAGE_SIZE)
    prp1, prp2 = build_prps(BufferPool(mem), pages_for(buf, 2 * PAGE_SIZE))
    assert prp1 == buf and prp2 == buf + PAGE_SIZE


def test_build_prps_list_for_large_transfer():
    sim, mem = make_mem()
    buf = mem.alloc(32 * PAGE_SIZE)
    prp1, prp2 = build_prps(BufferPool(mem), pages_for(buf, 32 * PAGE_SIZE))
    assert prp1 == buf
    entry = mem.load_obj(prp2)
    assert isinstance(entry, PRPList)
    assert len(entry.entries) == 31


@given(st.integers(1, 64), st.integers(0, PAGE_SIZE - 1))
def test_walk_prps_covers_whole_transfer(npages, offset):
    sim = Simulator()
    mem = HostMemory(sim, 1 << 30)
    length = npages * PAGE_SIZE
    buf = mem.alloc(length + PAGE_SIZE) + offset
    prp1, prp2 = build_prps(BufferPool(mem), pages_for(buf, length))
    pages = walk_prps(prp1, prp2, length, mem.load_obj(prp2))
    covered = 0
    for page_addr in pages:
        covered += min(PAGE_SIZE - page_addr % PAGE_SIZE, length - covered)
    assert covered == length
    assert pages[0] == buf


def test_walk_prps_bad_list_pointer_rejected():
    sim, mem = make_mem()
    with pytest.raises(SimulationError, match="PRP list"):
        walk_prps(0, 0xDEAD, 10 * PAGE_SIZE, mem.load_obj(0xDEAD))


def test_walk_prps_unaligned_prp2_rejected():
    sim, mem = make_mem()
    # only prp1 may carry a page offset; an offset prp2 would DMA into
    # the middle of the wrong page
    with pytest.raises(SimulationError, match="prp2 .* not page-aligned"):
        walk_prps(0x1000, 0x2000 + 8, 2 * PAGE_SIZE, None)


def test_walk_prps_unaligned_list_entry_rejected():
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    entries = [2 * PAGE_SIZE, 3 * PAGE_SIZE + 4, 4 * PAGE_SIZE]
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    with pytest.raises(SimulationError, match="list entry .* not page-aligned"):
        walk_prps(0x1000, list_addr, 4 * PAGE_SIZE, mem.load_obj(list_addr))


def test_walk_prps_ignores_stale_tail_beyond_transfer():
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    # an unaligned entry past the transfer's page count is never used,
    # so it must not be validated (lists may be recycled with stale tails)
    entries = [2 * PAGE_SIZE, 3 * PAGE_SIZE, 5 * PAGE_SIZE + 4]
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    pages = walk_prps(0x1000, list_addr, 3 * PAGE_SIZE, mem.load_obj(list_addr))
    assert pages == [0x1000, 2 * PAGE_SIZE, 3 * PAGE_SIZE]


def test_build_prps_zero_length_rejected():
    sim, mem = make_mem()
    with pytest.raises(SimulationError):
        build_prps(BufferPool(mem), pages_for(0x1000, 0))


def test_release_prps_serves_list_address_back_as_plain_bytes():
    sim, mem = make_mem()
    pool = BufferPool(mem)
    length = 32 * PAGE_SIZE
    buf = pool.get(length)
    prp1, prp2 = build_prps(pool, pages_for(buf, length))
    release_prps(pool, prp1, prp2, length)
    # the list's page-rounded bucket hands the address to a data buffer,
    # which must read back bytes, not the parked PRPList
    data_buf = pool.get(PAGE_SIZE)
    assert data_buf == prp2
    payload = bytes(range(256)) * 16
    mem.mem_write(data_buf, PAGE_SIZE, payload)
    assert mem.mem_read(data_buf, PAGE_SIZE) == payload


def test_prp_list_bytes_only_beyond_two_pages():
    assert prp_list_bytes(0x1000, PAGE_SIZE) == 0
    assert prp_list_bytes(0x1000, 2 * PAGE_SIZE) == 0
    # an offset prp1 spills a two-page transfer onto a third page
    assert prp_list_bytes(0x1000 + 100, 2 * PAGE_SIZE) == 2 * 8
    assert prp_list_bytes(0x1000, 32 * PAGE_SIZE) == 31 * 8


def test_page_spans_cover_transfer_from_offset_first_page():
    pages = pages_for(PAGE_SIZE + 100, 2 * PAGE_SIZE)
    spans = list(page_spans(pages, 2 * PAGE_SIZE))
    assert spans == [
        (PAGE_SIZE + 100, 0, PAGE_SIZE - 100),
        (2 * PAGE_SIZE, PAGE_SIZE - 100, PAGE_SIZE),
        (3 * PAGE_SIZE, 2 * PAGE_SIZE - 100, 100),
    ]


# ------------------------------------------------------------ runs == lists
def _page_list(buffer_addr, length):
    """The page-by-page loop chains were built with before runs."""
    pages = []
    addr, remaining = buffer_addr, length
    while remaining > 0:
        pages.append(addr)
        step = PAGE_SIZE - addr % PAGE_SIZE
        addr += step
        remaining -= step
    return pages


@given(st.integers(1, 64), st.integers(0, PAGE_SIZE - 1), st.integers(0, 3))
def test_run_chains_resolve_to_the_page_list(npages, offset, tail):
    """Build then walk, aligned or not: the same pages as the old loop,
    as a run exactly when the buffer is page-aligned."""
    sim, mem = make_mem()
    length = npages * PAGE_SIZE - tail
    buf = mem.alloc(length + PAGE_SIZE) + offset
    expected = _page_list(buf, length)
    pages = pages_for(buf, length)
    assert list(pages) == expected
    assert isinstance(pages, range) == (offset == 0)
    prp1, prp2 = build_prps(BufferPool(mem), pages)
    walked = walk_prps(prp1, prp2, length, mem.load_obj(prp2))
    assert list(walked) == expected
    if offset == 0 and len(expected) > 2:
        assert isinstance(walked, range)


@given(st.integers(1, 127), st.integers(1, 64), st.integers(0, 1 << 20),
       st.lists(st.integers(1, 16), min_size=1, max_size=4))
def test_tagging_and_extent_slices_keep_runs(fn, npages, page0, cuts):
    """Tagging a run equals tagging each page; each extent's slice of a
    tagged run is still a run, and builds/walks to the same pages."""
    run = range(page0 * PAGE_SIZE, (page0 + npages) * PAGE_SIZE, PAGE_SIZE)
    tagged = encode_global_prps(fn, run)
    assert isinstance(tagged, range)
    assert list(tagged) == [encode_global_prp(fn, a) for a in run]
    assert encode_global_prps(fn, list(run)) == list(tagged)
    sim, mem = make_mem()
    pool = BufferPool(mem)
    off = 0
    for cnt in cuts:
        frag = tagged[off : off + cnt]
        if not frag:
            break
        assert isinstance(frag, range)
        prp1, prp2 = build_prps(pool, frag)
        walked = walk_prps(prp1, prp2, len(frag) * PAGE_SIZE,
                           mem.load_obj(prp2))
        assert list(walked) == list(frag)
        off += cnt


def test_unaligned_run_in_a_prp_list_rejected():
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    entries = range(2 * PAGE_SIZE + 4, 5 * PAGE_SIZE, PAGE_SIZE)
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    with pytest.raises(SimulationError, match="list entry .* not page-aligned"):
        walk_prps(0x1000, list_addr, 4 * PAGE_SIZE, mem.load_obj(list_addr))


def test_run_with_an_unaligned_step_rejected():
    # an aligned start alone does not align a run's later entries
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    entries = range(2 * PAGE_SIZE, 5 * PAGE_SIZE, PAGE_SIZE + 8)
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    with pytest.raises(SimulationError, match="list entry .* not page-aligned"):
        walk_prps(0x1000, list_addr, 4 * PAGE_SIZE, mem.load_obj(list_addr))


def test_short_run_list_rejected():
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    entries = range(2 * PAGE_SIZE, 4 * PAGE_SIZE, PAGE_SIZE)
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    with pytest.raises(SimulationError, match="shorter"):
        walk_prps(0x1000, list_addr, 4 * PAGE_SIZE, mem.load_obj(list_addr))


def test_run_not_continuing_prp1_walks_to_a_list():
    sim, mem = make_mem()
    list_addr = mem.alloc(4 * 8, align=8)
    entries = range(8 * PAGE_SIZE, 11 * PAGE_SIZE, PAGE_SIZE)
    mem.store_obj(list_addr, PRPList(list_addr, entries))
    pages = walk_prps(0x1000, list_addr, 4 * PAGE_SIZE, mem.load_obj(list_addr))
    assert pages == [0x1000, 8 * PAGE_SIZE, 9 * PAGE_SIZE, 10 * PAGE_SIZE]


def test_run_crossing_48_bits_rejected():
    run = range((1 << 48) - 2 * PAGE_SIZE, (1 << 48) + PAGE_SIZE, PAGE_SIZE)
    with pytest.raises(SimulationError, match="exceeds 48 bits"):
        encode_global_prps(1, run)
    with pytest.raises(SimulationError, match="exceeds 48 bits"):
        encode_global_prps(1, run[::-1])


@pytest.mark.parametrize("fn", [0, 128])
def test_run_with_function_id_out_of_range_rejected(fn):
    with pytest.raises(SimulationError, match="function id"):
        encode_global_prps(fn, range(0, 4 * PAGE_SIZE, PAGE_SIZE))
