"""Mapping table tests: Fig. 4(a) bit format and equations (1)-(4)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import CHUNK_BYTES, MappingEntry, MappingTable
from repro.sim import SimulationError

CHUNK_BLOCKS = CHUNK_BYTES // 4096


# ------------------------------------------------------------- bit format
def test_entry_encodes_to_paper_layout():
    entry = MappingEntry(base_chunk=0b101101, ssd_id=0b10)
    raw = entry.encode()
    assert raw == (0b101101 << 2) | 0b10
    assert raw <= 0xFF


@given(st.integers(0, 63), st.integers(0, 3))
def test_entry_encode_decode_roundtrip(base, ssd):
    entry = MappingEntry(base_chunk=base, ssd_id=ssd)
    assert MappingEntry.decode(entry.encode()) == entry


def test_entry_field_bounds_enforced():
    with pytest.raises(SimulationError):
        MappingEntry(base_chunk=64, ssd_id=0)
    with pytest.raises(SimulationError):
        MappingEntry(base_chunk=0, ssd_id=4)
    with pytest.raises(SimulationError):
        MappingEntry.decode(0x100)


# ---------------------------------------------------------------- equations
def test_translate_follows_equations():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    # host chunk 9 -> row 1, entry 1 per equations (1)/(2)
    table.set_entry(9, MappingEntry(base_chunk=5, ssd_id=3))
    hl = 9 * CHUNK_BLOCKS + 1234
    ssd, pl = table.translate(hl)
    assert ssd == 3  # equation (3)
    assert pl == 5 * CHUNK_BLOCKS + 1234  # equation (4)


def test_translate_requires_valid_bit():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    table.set_entry(0, MappingEntry(0, 0))
    table.clear_entry(0)
    with pytest.raises(SimulationError, match="invalid mapping entry"):
        table.translate(0)


def test_validation_entry_is_a_bit_vector():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    table.set_entry(0, MappingEntry(1, 0))
    table.set_entry(2, MappingEntry(2, 1))
    table.set_entry(7, MappingEntry(3, 2))
    assert table.validation_entry(0) == 0b10000101
    table.clear_entry(2)
    assert table.validation_entry(0) == 0b10000001


def test_translate_beyond_table_errors():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS, rows=1)
    table.set_entry(0, MappingEntry(0, 0))
    with pytest.raises(SimulationError, match="beyond mapping table"):
        table.translate(8 * CHUNK_BLOCKS)


@given(
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 3)),
             min_size=1, max_size=64),
    st.data(),
)
def test_translate_roundtrip_property(entries, data):
    """For any provisioned table, translate() must land inside the
    mapped chunk and preserve the intra-chunk offset."""
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    for idx, (base, ssd) in enumerate(entries):
        table.set_entry(idx, MappingEntry(base, ssd))
    idx = data.draw(st.integers(0, len(entries) - 1))
    offset = data.draw(st.integers(0, CHUNK_BLOCKS - 1))
    hl = idx * CHUNK_BLOCKS + offset
    ssd, pl = table.translate(hl)
    base, expected_ssd = entries[idx]
    assert ssd == expected_ssd
    assert pl == base * CHUNK_BLOCKS + offset
    assert pl % CHUNK_BLOCKS == hl % CHUNK_BLOCKS  # offset preserved


def test_extent_within_one_chunk_is_single():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    table.set_entry(0, MappingEntry(7, 1))
    extents = table.translate_extent(100, 32)
    assert extents == [(1, 7 * CHUNK_BLOCKS + 100, 32)]


def test_extent_splits_at_chunk_boundary():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    table.set_entry(0, MappingEntry(2, 0))
    table.set_entry(1, MappingEntry(9, 3))
    start = CHUNK_BLOCKS - 10
    extents = table.translate_extent(start, 30)
    assert extents == [
        (0, 2 * CHUNK_BLOCKS + start, 10),
        (3, 9 * CHUNK_BLOCKS, 20),
    ]
    assert sum(cnt for _, _, cnt in extents) == 30


@given(st.integers(0, 3 * CHUNK_BLOCKS - 1), st.integers(1, 4096))
def test_extent_conservation_property(start, count):
    """Extents always cover exactly the requested range, in order."""
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    for idx in range(4):
        table.set_entry(idx, MappingEntry(base_chunk=idx * 2, ssd_id=idx % 4))
    count = min(count, 4 * CHUNK_BLOCKS - start)
    extents = table.translate_extent(start, count)
    assert sum(c for _, _, c in extents) == count
    # each fragment stays inside one chunk on its target drive
    for _, pl, c in extents:
        assert (pl % CHUNK_BLOCKS) + c <= CHUNK_BLOCKS


def test_extent_ending_exactly_at_final_chunk_boundary():
    """The last block of the last provisioned chunk is reachable."""
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS, rows=1)
    for idx in range(8):
        table.set_entry(idx, MappingEntry(idx, idx % 4))
    extents = table.translate_extent(8 * CHUNK_BLOCKS - 4, 4)
    assert extents == [(3, 7 * CHUNK_BLOCKS + CHUNK_BLOCKS - 4, 4)]
    # one block past the table still errors
    with pytest.raises(SimulationError, match="beyond mapping table"):
        table.translate_extent(8 * CHUNK_BLOCKS - 4, 5)


def test_extent_crossing_a_just_cleared_entry_errors_cleanly():
    """A split extent whose second chunk was just deprovisioned must
    raise — and the cleared slot must read back as zero, not the stale
    packed entry (the regression the lba checker's invalid-read hook
    pins at runtime)."""
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    table.set_entry(0, MappingEntry(2, 0))
    table.set_entry(1, MappingEntry(9, 3))
    table.clear_entry(1)
    assert table.raw_entry(1) == 0  # no stale packed value survives
    with pytest.raises(SimulationError, match="invalid mapping entry"):
        table.translate_extent(CHUNK_BLOCKS - 10, 30)
    # the part before the cleared chunk still translates on its own
    assert table.translate_extent(CHUNK_BLOCKS - 10, 10) == [
        (0, 2 * CHUNK_BLOCKS + CHUNK_BLOCKS - 10, 10)]


def test_cleared_entry_reads_back_zero_under_checker():
    """clear_entry must zero the packed byte: the runtime checker fails
    any invalid-entry read that still sees a nonzero raw value."""
    from repro.checks import CheckContext

    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    ctx = CheckContext(checkers=["lba"])
    table.checks = ctx
    table.set_entry(0, MappingEntry(base_chunk=13, ssd_id=2))
    table.clear_entry(0)
    # translate hits the invalid entry; the checker inspects the raw
    # byte via on_lba_invalid_read and would raise InvariantViolation
    # ("stale packed value") if clear_entry left it nonzero
    with pytest.raises(SimulationError, match="invalid mapping entry"):
        table.translate(5)


def test_valid_count_tracks_provisioning():
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS)
    assert table.valid_count() == 0
    for i in range(5):
        table.set_entry(i, MappingEntry(i, 0))
    assert table.valid_count() == 5


def test_capacity_entries_and_large_tables():
    # the paper's eval binds a 1536 GB namespace = 24 chunks = 3 rows
    table = MappingTable(chunk_blocks=CHUNK_BLOCKS, rows=3)
    assert table.capacity_entries == 24
    for i in range(24):
        table.set_entry(i, MappingEntry(i % 29 % 64, i % 4))
    ssd, pl = table.translate(23 * CHUNK_BLOCKS + 5)
    assert ssd == 23 % 4
