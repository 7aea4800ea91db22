"""MiniKV: a leveled LSM-tree key-value store (the RocksDB stand-in).

The full write path — WAL group commit, memtable, flush to L0,
leveled background compaction — and the full read path — memtable,
L0 newest-first, leveled binary search, bloom filters, block reads —
run against the simulated block device, so YCSB on MiniKV exercises the
storage schemes with genuine LSM I/O patterns (log appends, sequential
flushes, compaction read/write bursts, random point reads).

All methods are process generators: drive them with ``yield from``
inside a simulation process.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Optional

from ...host.block import BlockTarget
from ...sim import Event, SimulationError, Simulator
from ...sim.units import MIB
from ..blockfs import ExtentAllocator
from .bloom import BloomFilter
from .encoding import TOMBSTONE, decode_records, lookup_index_block
from .memtable import MemTable
from .sstable import SSTable, SSTableWriter
from .wal import WriteAheadLog

__all__ = ["MiniKVConfig", "MiniKVStats", "MiniKV"]


@dataclass(frozen=True)
class MiniKVConfig:
    """Tuning knobs of one MiniKV instance."""
    memtable_bytes: int = 2 * MIB
    l0_compaction_trigger: int = 4
    level_size_multiplier: int = 8
    max_levels: int = 5
    target_table_bytes: int = 2 * MIB
    wal_ring_blocks: int = 8192
    #: carry real bytes through the device (integrity mode) or keep
    #: authoritative copies in memory and charge timing only
    carry_data: bool = False
    sync_writes: bool = True
    #: CPU time per client operation (memtable/index work)
    op_cpu_ns: int = 2_000
    #: emit a leading on-disk index block per SSTable; mediated point
    #: probes then read index + data (two commands per candidate)
    indexed_tables: bool = False
    #: route point lookups through an installed pushdown chase program
    #: (one vendor command per lookup); requires :meth:`MiniKV.
    #: install_pushdown` and falls back to mediated reads on error
    pushdown_reads: bool = False


@dataclass
class MiniKVStats:
    """Operation, cache, flush, and compaction counters."""
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    hits: int = 0
    misses: int = 0
    block_reads: int = 0
    index_reads: int = 0
    pushdown_gets: int = 0
    pushdown_fallbacks: int = 0
    bloom_skips: int = 0
    flushes: int = 0
    compactions: int = 0
    compacted_bytes: int = 0
    write_stall_ns: int = 0


class MiniKV:
    """The database instance on one block device."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockTarget,
        config: MiniKVConfig = MiniKVConfig(),
        name: str = "minikv",
    ):
        self.sim = sim
        self.device = device
        self.config = config
        self.name = name
        self.stats = MiniKVStats()
        self.allocator = ExtentAllocator(device, base_lba=config.wal_ring_blocks)
        from ..blockfs import Extent

        self.wal = WriteAheadLog(
            sim, device, Extent(0, config.wal_ring_blocks), carry_data=config.carry_data
        )
        self.memtable = MemTable(config.memtable_bytes)
        self.levels: list[list[SSTable]] = [[] for _ in range(config.max_levels)]
        self._sequence = 0
        self._next_table_id = 0
        self._flush_lock: Optional[Event] = None
        self._compacting = False
        #: MANIFEST role: sequence number fully covered by SSTables —
        #: WAL records at or below it are obsolete after a flush
        self.flushed_through_seq = 0
        #: set once install_pushdown() succeeds on the device
        self._push_armed = False

    # ------------------------------------------------------------ public API
    def _op_cpu(self):
        if self.config.op_cpu_ns:
            yield self.sim.timeout(self.config.op_cpu_ns)

    def put(self, key: bytes, value: bytes):
        """Process generator: durable insert/update.

        The tombstone sentinel is reserved for :meth:`delete`.
        """
        if value == TOMBSTONE:
            raise ValueError("value collides with the reserved tombstone sentinel")
        self.stats.puts += 1
        yield from self._op_cpu()
        yield from self._write(key, value)

    def delete(self, key: bytes):
        self.stats.deletes += 1
        yield from self._write(key, TOMBSTONE)

    def get(self, key: bytes):
        """Process generator: returns the value or None."""
        self.stats.gets += 1
        yield from self._op_cpu()
        hit = self.memtable.get(key)
        if hit is not None:
            value, _ = hit
            return self._found(value)
        if self._push_armed and self.config.pushdown_reads:
            done, value = yield from self._get_pushdown(key)
            if done:
                if value is None:
                    self.stats.misses += 1
                    return None
                return self._found(value)
        # L0: newest table first (overlapping ranges)
        for table in reversed(self.levels[0]):
            value = yield from self._probe_table(table, key)
            if value is not None:
                return self._found(value)
        # deeper levels: at most one candidate table per level
        for level in self.levels[1:]:
            table = self._level_candidate(level, key)
            if table is None:
                continue
            value = yield from self._probe_table(table, key)
            if value is not None:
                return self._found(value)
        self.stats.misses += 1
        return None

    def scan(self, start: bytes, end: bytes, limit: int = 100):
        """Process generator: merged range scan, newest version wins."""
        self.stats.scans += 1
        merged: dict[bytes, tuple[bytes, int]] = {}
        for key, value, seq in self.memtable.scan(start, end):
            merged[key] = (value, seq)
        for level_idx, level in enumerate(self.levels):
            for table in level:
                if not table.overlaps(start, end):
                    continue
                lo = table.block_for(start)
                hi = table.block_for(end)
                lo = 0 if lo is None else lo
                hi = table.num_blocks - 1 if hi is None else hi
                for block_idx in range(lo, hi + 1):
                    blob = yield from self._read_block(table, block_idx)
                    for key, value, seq in decode_records(blob):
                        if start <= key < end:
                            old = merged.get(key)
                            if old is None or seq > old[1]:
                                merged[key] = (value, seq)
        out = [
            (k, v) for k, (v, _) in sorted(merged.items()) if v != TOMBSTONE
        ]
        return out[:limit]

    # --------------------------------------------------------------- writes
    def _write(self, key: bytes, value: bytes):
        self._sequence += 1
        seq = self._sequence
        self.wal.append(key, value, seq)
        self.memtable.put(key, value, seq)
        if self.config.sync_writes:
            yield self.wal.sync()
        if self.memtable.should_flush:
            yield from self._flush_memtable()

    def _flush_memtable(self):
        """Write-stall flush: the triggering writer pays for it."""
        if self._flush_lock is not None:
            stall_start = self.sim.now
            yield self._flush_lock
            self.stats.write_stall_ns += self.sim.now - stall_start
            return
        self._flush_lock = self.sim.event(name=f"{self.name}.flush")
        full, self.memtable = self.memtable, MemTable(self.config.memtable_bytes)
        writer = self._writer(level=0, expected=len(full))
        newest = 0
        for key, value, seq in full.sorted_items():
            writer.add(key, value, seq)
            if seq > newest:
                newest = seq
        table = yield from writer.finish()
        if table is not None:
            self.levels[0].append(table)
            self.stats.flushes += 1
            self.flushed_through_seq = max(self.flushed_through_seq, newest)
        lock, self._flush_lock = self._flush_lock, None
        lock.succeed()
        if len(self.levels[0]) >= self.config.l0_compaction_trigger and not self._compacting:
            self._compacting = True
            self.sim.spawn(self._compact_l0(), name=f"{self.name}.compact")

    def _writer(self, level: int, expected: int) -> SSTableWriter:
        self._next_table_id += 1
        return SSTableWriter(
            self.sim, self.device, self.allocator, self._next_table_id,
            level, expected, carry_data=self.config.carry_data,
            indexed=self.config.indexed_tables,
        )

    # ----------------------------------------------------------- compaction
    def _compact_l0(self):
        """Merge all of L0 with the overlapping part of L1."""
        try:
            sources = list(self.levels[0])
            if not sources:
                return
            min_key = min(t.min_key for t in sources)
            max_key = max(t.max_key for t in sources)
            l1_overlap = [t for t in self.levels[1] if t.overlaps(min_key, max_key)]
            inputs = sources + l1_overlap
            merged: dict[bytes, tuple[bytes, int]] = {}
            for table in inputs:
                for block_idx in range(table.num_blocks):
                    blob = yield from self._read_block(table, block_idx)
                    for key, value, seq in decode_records(blob):
                        old = merged.get(key)
                        if old is None or seq > old[1]:
                            merged[key] = (value, seq)
                    self.stats.compacted_bytes += 4096
            # write new L1 tables at the target size
            new_tables: list[SSTable] = []
            writer = None
            written = 0
            for key in sorted(merged):
                value, seq = merged[key]
                if value == TOMBSTONE:
                    continue  # compaction drops deletions at the last level
                if writer is None:
                    writer = self._writer(level=1, expected=len(merged))
                writer.add(key, value, seq)
                written += len(key) + len(value) + 16
                if written >= self.config.target_table_bytes:
                    table = yield from writer.finish()
                    if table:
                        new_tables.append(table)
                    writer = None
                    written = 0
            if writer is not None:
                table = yield from writer.finish()
                if table:
                    new_tables.append(table)
            # swap: remove inputs, insert outputs (sorted by key)
            for table in sources:
                self.levels[0].remove(table)
                self.allocator.free(table.extent)
            for table in l1_overlap:
                self.levels[1].remove(table)
                self.allocator.free(table.extent)
            self.levels[1].extend(new_tables)
            self.levels[1].sort(key=lambda t: t.min_key)
            self.stats.compactions += 1
        finally:
            self._compacting = False
        if len(self.levels[0]) >= self.config.l0_compaction_trigger:
            self._compacting = True
            self.sim.spawn(self._compact_l0(), name=f"{self.name}.compact")

    # ------------------------------------------------------------- pushdown
    def install_pushdown(self):
        """Process generator: install the SSTable chase program.

        The program's windows cover everything past the WAL ring, so
        even a buggy program can never reach the durability log; the
        device must expose the vendor pushdown path
        (``install_push_program``/``push_exec``).
        """
        from ...push import chase_program

        install = getattr(self.device, "install_push_program", None)
        if install is None:
            raise SimulationError(f"{self.name}: device has no pushdown path")
        windows = [[self.config.wal_ring_blocks,
                    self.device.num_blocks - self.config.wal_ring_blocks]]
        info = yield install(chase_program(windows))
        self._push_armed = bool(getattr(info, "ok", False))
        return info

    def _candidate_tables(self, key: bytes) -> list[tuple[SSTable, int]]:
        """(table, data block) pairs a mediated lookup would probe, in
        probe order."""
        tables = list(reversed(self.levels[0]))
        for level in self.levels[1:]:
            table = self._level_candidate(level, key)
            if table is not None:
                tables.append(table)
        hashes = BloomFilter.key_hashes(key)
        out = []
        for table in tables:
            if not table.bloom.might_contain(key, hashes):
                self.stats.bloom_skips += 1
                continue
            block_idx = table.block_for(key)
            if block_idx is not None:
                out.append((table, block_idx))
        return out

    def _get_pushdown(self, key: bytes):
        """Process generator: one vendor command resolves the lookup.

        Returns ``(done, value)``; ``done=False`` means the device
        refused the command (e.g. mid hot-remove) and the caller must
        fall back to mediated probes.
        """
        carry = self.config.carry_data
        probes = self._candidate_tables(key)
        if not probes:
            return True, None
        candidates = []
        hits = []  # shadow mode: each candidate's hit, from its one block walk
        for table, ptr in probes:
            cand = {
                "index_lba": table.extent.lba + table.index_block_for(key),
                "data_base": table.extent.lba + table.data_block_offset,
            }
            if not carry:
                # shadow mode: precompute the pointer chase outcome so
                # the engine issues the identical command sequence
                # without any bytes flowing
                hit = table.get_from_block(table.shadow_blocks[ptr], key)
                cand["shadow_ptr"] = ptr
                cand["hit"] = hit is not None
                hits.append(hit)
            candidates.append(cand)
        info = yield self.device.push_exec(
            {"carry": carry, "key": key, "candidates": candidates})
        result = info.data
        if not info.ok or result is None:
            self.stats.pushdown_fallbacks += 1
            return False, None
        self.stats.pushdown_gets += 1
        if not result.found:
            return True, None
        if carry:
            table = probes[result.candidate][0]
            hit = table.get_from_block(result.block or b"", key)
        else:
            hit = hits[result.candidate]
        return True, hit[0] if hit else None

    # ---------------------------------------------------------------- reads
    def _level_candidate(self, level: list[SSTable], key: bytes) -> Optional[SSTable]:
        if not level:
            return None
        idx = bisect.bisect_right([t.min_key for t in level], key) - 1
        if idx < 0:
            return None
        table = level[idx]
        return table if table.min_key <= key <= table.max_key else None

    def _probe_table(self, table: SSTable, key: bytes):
        if not table.bloom.might_contain(key):
            self.stats.bloom_skips += 1
            return None
        block_idx = table.block_for(key)
        if block_idx is None:
            return None
        if table.data_block_offset:
            # indexed table: the mediated path pays the on-disk index
            # hop a real database would (the pushdown path folds both
            # hops into one vendor command)
            block_idx = yield from self._read_index(table, key, block_idx)
        blob = yield from self._read_block(table, block_idx)
        hit = table.get_from_block(blob, key)
        return hit[0] if hit else None

    def _read_index(self, table: SSTable, key: bytes, block_idx: int):
        self.stats.index_reads += 1
        info = yield self.device.read(
            table.extent.lba + table.index_block_for(key), 1,
            **self._read_kwargs()
        )
        if not info.ok:
            raise SimulationError("SSTable index read failed")
        if self.config.carry_data:
            looked = lookup_index_block(info.data or b"", key)
            if looked is not None:
                return looked
        return block_idx

    def _read_block(self, table: SSTable, block_idx: int):
        self.stats.block_reads += 1
        info = yield self.device.read(
            table.extent.lba + table.data_block_offset + block_idx, 1,
            **self._read_kwargs()
        )
        if not info.ok:
            raise SimulationError("SSTable block read failed")
        if self.config.carry_data:
            return info.data or b""
        assert table.shadow_blocks is not None
        return table.shadow_blocks[block_idx]

    def _read_kwargs(self) -> dict:
        return {"want_data": True} if self.config.carry_data else {}

    def _found(self, value: bytes) -> Optional[bytes]:
        if value == TOMBSTONE:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return value
