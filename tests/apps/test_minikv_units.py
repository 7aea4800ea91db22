"""Unit tests for MiniKV components: encoding, bloom, memtable, WAL,
SSTables, extent allocator."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.blockfs import Extent, ExtentAllocator
from repro.apps.minikv import (
    BloomFilter,
    MemTable,
    SSTableWriter,
    TOMBSTONE,
    WriteAheadLog,
    decode_records,
    encode_record,
    find_record,
    record_size,
)
from repro.baselines import build_native
from repro.sim import SimulationError


# ------------------------------------------------------------------ encoding
def test_encode_decode_single_record():
    blob = encode_record(b"key", b"value", 42)
    assert list(decode_records(blob)) == [(b"key", b"value", 42)]
    assert len(blob) == record_size(b"key", b"value")


def test_decode_stops_at_zero_padding():
    blob = encode_record(b"k1", b"v1", 1) + bytes(64)
    assert list(decode_records(blob)) == [(b"k1", b"v1", 1)]


def test_decode_ignores_torn_tail():
    blob = encode_record(b"k1", b"v1", 1) + encode_record(b"k2", b"v2", 2)[:-3]
    assert list(decode_records(blob)) == [(b"k1", b"v1", 1)]


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        encode_record(b"", b"v", 1)


@given(st.lists(
    st.tuples(st.binary(min_size=1, max_size=40), st.binary(max_size=100),
              st.integers(0, 2**60)),
    min_size=0, max_size=30,
))
@settings(max_examples=30, deadline=None)
def test_record_stream_roundtrip(records):
    blob = b"".join(encode_record(k, v, s) for k, v, s in records)
    assert list(decode_records(blob)) == records


def _newest_by_scan(blob, key):
    """Reference point lookup: the first highest-seq record of ``key``."""
    best = None
    for k, v, seq in decode_records(blob):
        if k == key and (best is None or seq > best[1]):
            best = (v, seq)
    return best


#: short keys, some prefixes of others, so duplicates and near-misses abound
_KEYS = st.sampled_from([b"a", b"ab", b"abc", b"b", b"user1", b"user12"])


@st.composite
def _blocks(draw):
    """(blob, target): records with duplicate keys and differing seqs,
    the target's bytes embedded in other records' values, then a clean
    end, zero padding with a record past it, or a torn record."""
    target = draw(_KEYS)
    parts = []
    for key, value, seq in draw(st.lists(
            st.tuples(_KEYS, st.binary(max_size=12), st.integers(0, 4)),
            max_size=12)):
        embed = draw(st.sampled_from(
            [b"", target, encode_record(target, b"fake", 9)]))
        parts.append(encode_record(key, value + embed, seq))
    tail = draw(st.sampled_from(["end", "padding", "torn"]))
    if tail == "padding":
        parts.append(bytes(draw(st.integers(16, 48))))
        parts.append(encode_record(target, b"past padding", 9))
    elif tail == "torn":
        rec = encode_record(target, b"torn", 9)
        cut = draw(st.one_of(st.just(len(rec) - 1), st.integers(1, len(rec) - 1)))
        parts.append(rec[:cut])
    return b"".join(parts), target


@given(_blocks())
@settings(max_examples=300, deadline=None)
def test_find_record_equals_a_max_seq_scan(block):
    blob, target = block
    assert find_record(blob, target) == _newest_by_scan(blob, target)


def test_find_record_first_of_equal_seqs_wins():
    blob = (encode_record(b"k", b"old", 1) + encode_record(b"k", b"first", 5)
            + encode_record(b"k", b"second", 5) + encode_record(b"kk", b"x", 9))
    assert find_record(blob, b"k") == (b"first", 5)
    assert find_record(blob, b"kk") == (b"x", 9)
    assert find_record(blob, b"z") is None
    # a record one byte short of its frame is a torn tail, not a hit
    assert find_record(blob + encode_record(b"k", b"torn", 9)[:-1], b"k") == (b"first", 5)


# -------------------------------------------------------------------- bloom
def _positions_per_formula(bloom, key):
    """The filter's bit positions, spelled as ``(h1 + i * h2) % bits``."""
    digest = hashlib.blake2b(key, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return [(h1 + i * h2) % bloom.num_bits for i in range(bloom.num_hashes)]


@given(st.lists(st.binary(min_size=1, max_size=12), max_size=40),
       st.binary(min_size=1, max_size=12), st.integers(1, 300))
@settings(max_examples=100, deadline=None)
def test_bloom_precomputed_hashes_agree_with_per_position_formula(
        added, probe, expected):
    bloom = BloomFilter(expected_items=expected)
    for key in added:
        bloom.add(key)
    bits = bytearray(len(bloom._bits))
    for key in added:
        for pos in _positions_per_formula(bloom, key):
            bits[pos >> 3] |= 1 << (pos & 7)
    assert bloom._bits == bits
    present = all(bits[pos >> 3] & (1 << (pos & 7))
                  for pos in _positions_per_formula(bloom, probe))
    assert bloom.might_contain(probe, BloomFilter.key_hashes(probe)) is present
    assert bloom.might_contain(probe) is present


def test_bloom_no_false_negatives():
    bloom = BloomFilter(expected_items=500)
    keys = [f"key{i}".encode() for i in range(500)]
    for key in keys:
        bloom.add(key)
    assert all(bloom.might_contain(k) for k in keys)


def test_bloom_false_positive_rate_is_low():
    bloom = BloomFilter(expected_items=1000, bits_per_key=10)
    for i in range(1000):
        bloom.add(f"key{i}".encode())
    fp = sum(bloom.might_contain(f"other{i}".encode()) for i in range(2000))
    assert fp / 2000 < 0.05  # ~1% expected at 10 bits/key


# ----------------------------------------------------------------- memtable
def test_memtable_put_get_overwrite_sizes():
    mt = MemTable(flush_threshold_bytes=10_000)
    mt.put(b"a", b"1" * 100, 1)
    size1 = mt.bytes_used
    mt.put(b"a", b"2" * 100, 2)
    assert mt.bytes_used == size1  # overwrite does not grow
    assert mt.get(b"a") == (b"2" * 100, 2)
    assert len(mt) == 1


def test_memtable_delete_is_tombstone():
    mt = MemTable()
    mt.put(b"a", b"x", 1)
    mt.delete(b"a", 2)
    assert mt.get(b"a") == (TOMBSTONE, 2)


def test_memtable_sorted_iteration_and_scan():
    mt = MemTable()
    for key in (b"c", b"a", b"b", b"d"):
        mt.put(key, key.upper(), 1)
    assert [k for k, _, _ in mt.sorted_items()] == [b"a", b"b", b"c", b"d"]
    assert [k for k, _, _ in mt.scan(b"b", b"d")] == [b"b", b"c"]


def test_memtable_flush_threshold():
    mt = MemTable(flush_threshold_bytes=300)
    assert not mt.should_flush
    mt.put(b"k", b"v" * 300, 1)
    assert mt.should_flush


# ------------------------------------------------------------------ blockfs
def test_extent_allocator_bump_and_recycle():
    rig = build_native(1)
    alloc = ExtentAllocator(rig.driver(), base_lba=100)
    a = alloc.alloc(10)
    b = alloc.alloc(10)
    assert a.lba == 100 and b.lba == 112 or b.lba == 110  # alignment-free bump
    alloc.free(a)
    c = alloc.alloc(10)
    assert c.lba == a.lba  # recycled
    with pytest.raises(SimulationError):
        alloc.alloc(0)


def test_extent_allocator_exhaustion():
    rig = build_native(1)
    alloc = ExtentAllocator(rig.driver(), base_lba=0, limit_blocks=16)
    alloc.alloc(16)
    with pytest.raises(SimulationError, match="full"):
        alloc.alloc(1)


# ---------------------------------------------------------------------- WAL
def test_wal_group_commit_shares_one_write():
    rig = build_native(1)
    sim = rig.sim
    wal = WriteAheadLog(sim, rig.driver(), Extent(0, 1024))
    results = []

    def committer(i):
        wal.append(b"k%d" % i, b"v", i)
        yield wal.sync()
        results.append(sim.now)

    procs = [sim.process(committer(i)) for i in range(8)]
    sim.run(sim.all_of(procs))
    assert len(results) == 8
    # all 8 joined at most 2 group commits
    assert wal.group_commits <= 2
    assert wal.appended_records == 8


def test_wal_wraps_ring():
    rig = build_native(1)
    sim = rig.sim
    wal = WriteAheadLog(sim, rig.driver(), Extent(0, 4))

    def flow():
        for i in range(10):
            wal.append(b"key%d" % i, b"x" * 2000, i)
            yield wal.sync()

    sim.run(sim.process(flow()))
    assert wal.synced_blocks >= 10  # wrapped several times without error


def test_wal_carry_data_writes_real_bytes():
    rig = build_native(1)
    sim = rig.sim
    wal = WriteAheadLog(sim, rig.driver(), Extent(0, 64), carry_data=True)

    def flow():
        wal.append(b"kk", b"vv", 7)
        yield wal.sync()

    sim.run(sim.process(flow()))
    stored = rig.ssds[0].block_data(0)
    assert stored is not None
    assert list(decode_records(stored)) == [(b"kk", b"vv", 7)]


# ------------------------------------------------------------------ sstable
def make_table(rig, records, carry_data=False):
    alloc = ExtentAllocator(rig.driver(), base_lba=1024)
    writer = SSTableWriter(rig.sim, rig.driver(), alloc, table_id=1, level=0,
                           expected_records=len(records), carry_data=carry_data)
    for key, value, seq in records:
        writer.add(key, value, seq)

    def fin():
        table = yield from writer.finish()
        return table

    return rig.sim.run(rig.sim.process(fin()))


def test_sstable_metadata_and_block_index():
    rig = build_native(1)
    records = [(b"key%04d" % i, b"v" * 200, i) for i in range(100)]
    table = make_table(rig, records)
    assert table.min_key == b"key0000"
    assert table.max_key == b"key0099"
    assert table.num_records == 100
    assert table.num_blocks >= 5  # ~220B/record over 4K blocks
    # block_for points at a block whose first key <= key
    idx = table.block_for(b"key0050")
    assert table.first_keys[idx] <= b"key0050"
    assert table.block_for(b"zzz") is None


def test_sstable_rejects_out_of_order_adds():
    rig = build_native(1)
    alloc = ExtentAllocator(rig.driver(), base_lba=1024)
    writer = SSTableWriter(rig.sim, rig.driver(), alloc, 1, 0, 10)
    writer.add(b"b", b"x", 1)
    with pytest.raises(SimulationError, match="key order"):
        writer.add(b"a", b"x", 2)


def test_sstable_overlap_checks():
    rig = build_native(1)
    table = make_table(rig, [(b"m%02d" % i, b"v", i) for i in range(10)])
    assert table.overlaps(b"m00", b"m99")
    assert table.overlaps(b"a", b"m00")
    assert not table.overlaps(b"n", b"z")
