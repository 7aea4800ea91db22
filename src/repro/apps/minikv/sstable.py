"""SSTables: immutable sorted runs on disk.

A table is one extent of 4 KiB data blocks plus in-memory metadata
(block index of first-keys, bloom filter, key range) — the structure
RocksDB keeps per .sst file.  Point reads cost one block read when the
bloom filter passes; range scans read the covered blocks.

A point lookup walks the one block it reads once, with
:func:`~.encoding.find_record`, which copies out only the value of the
key it asked for.  Scans and compaction, which want every record,
decode the block with :func:`~.encoding.decode_records`.  Blocks are
not cached in decoded form: a decoded-block cache measured +4.7% peak
RSS on the MiniKV benchmark workload (DESIGN.md §3), for time the one
walk already saves.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from typing import Optional

from ...host.block import BlockTarget
from ...sim import SimulationError, Simulator
from ...sim.units import PAGE_SIZE
from ..blockfs import Extent, ExtentAllocator
from .bloom import BloomFilter
from .encoding import encode_record, find_record

__all__ = ["SSTable", "SSTableWriter"]


@dataclass
class SSTable:
    """Metadata of one on-disk sorted run."""

    table_id: int
    extent: Extent
    first_keys: list[bytes]  # first key of each data block
    bloom: BloomFilter
    min_key: bytes
    max_key: bytes
    num_records: int
    level: int = 0
    #: authoritative block payloads when the store elides device bytes
    shadow_blocks: Optional[list[bytes]] = field(default=None, repr=False)
    #: leading on-disk index blocks preceding the data blocks; data
    #: block i lives at ``extent.lba + data_block_offset + i``
    data_block_offset: int = 0
    #: first key covered by each on-disk index block (indexed tables)
    index_first_keys: Optional[list[bytes]] = None

    @property
    def num_blocks(self) -> int:
        return len(self.first_keys)

    def overlaps(self, min_key: bytes, max_key: bytes) -> bool:
        return not (self.max_key < min_key or max_key < self.min_key)

    def block_for(self, key: bytes) -> Optional[int]:
        """Index of the data block that could hold ``key``."""
        if not (self.min_key <= key <= self.max_key):
            return None
        idx = bisect.bisect_right(self.first_keys, key) - 1
        return max(0, idx)

    def index_block_for(self, key: bytes) -> int:
        """Which on-disk index block covers ``key`` (indexed tables)."""
        assert self.index_first_keys is not None
        idx = bisect.bisect_right(self.index_first_keys, key) - 1
        return max(0, idx)

    def get_from_block(self, blob: bytes, key: bytes) -> Optional[tuple[bytes, int]]:
        """``key``'s newest (value, sequence) in one data block, or None."""
        return find_record(blob, key)


class SSTableWriter:
    """Builds a table block by block, then writes it sequentially."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockTarget,
        allocator: ExtentAllocator,
        table_id: int,
        level: int,
        expected_records: int,
        carry_data: bool = False,
        indexed: bool = False,
    ):
        self.sim = sim
        self.device = device
        self.allocator = allocator
        self.table_id = table_id
        self.level = level
        self.carry_data = carry_data
        self.indexed = indexed
        self._blocks: list[bytes] = []
        self._current = bytearray()
        self._first_keys: list[bytes] = []
        self._bloom = BloomFilter(max(16, expected_records))
        self._min_key: Optional[bytes] = None
        self._max_key: Optional[bytes] = None
        self._records = 0

    def add(self, key: bytes, value: bytes, sequence: int) -> None:
        """Append in sorted order (caller guarantees ordering)."""
        if self._max_key is not None and key < self._max_key:
            raise SimulationError("SSTable records must be added in key order")
        rec = encode_record(key, value, sequence)
        if len(self._current) + len(rec) > PAGE_SIZE and self._current:
            self._seal_block()
        if not self._current:
            self._first_keys.append(key)
        self._current += rec
        self._bloom.add(key)
        if self._min_key is None:
            self._min_key = key
        self._max_key = key
        self._records += 1

    def _seal_block(self) -> None:
        self._blocks.append(bytes(self._current.ljust(PAGE_SIZE, b"\0")))
        self._current = bytearray()

    def _index_blocks(self) -> tuple[list[bytes], list[bytes]]:
        """On-disk index: one record per data block (first key -> number)."""
        blocks: list[bytes] = []
        block_keys: list[bytes] = []
        current = bytearray()
        for number, first_key in enumerate(self._first_keys):
            rec = encode_record(first_key, struct.pack("<Q", number), 0)
            if len(current) + len(rec) > PAGE_SIZE and current:
                blocks.append(bytes(current.ljust(PAGE_SIZE, b"\0")))
                current = bytearray()
            if not current:
                block_keys.append(first_key)
            current += rec
        if current:
            blocks.append(bytes(current.ljust(PAGE_SIZE, b"\0")))
        return blocks, block_keys

    def finish(self):
        """Process generator: write all blocks; returns the SSTable."""
        if self._current:
            self._seal_block()
        if not self._blocks:
            return None
        index_blocks: list[bytes] = []
        index_keys: list[bytes] = []
        if self.indexed:
            index_blocks, index_keys = self._index_blocks()
        blocks = index_blocks + self._blocks
        extent = self.allocator.alloc(len(blocks))
        # one large sequential write, as a file-system append would issue
        payload = b"".join(blocks) if self.carry_data else None
        info = yield self.device.write(extent.lba, len(blocks), payload=payload)
        if not info.ok:
            raise SimulationError("SSTable write failed")
        return SSTable(
            table_id=self.table_id,
            extent=extent,
            first_keys=self._first_keys,
            bloom=self._bloom,
            min_key=self._min_key or b"",
            max_key=self._max_key or b"",
            num_records=self._records,
            level=self.level,
            shadow_blocks=None if self.carry_data else list(self._blocks),
            data_block_offset=len(index_blocks),
            index_first_keys=index_keys if self.indexed else None,
        )
