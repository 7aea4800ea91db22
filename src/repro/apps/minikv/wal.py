"""Write-ahead log with group commit.

Every put/delete is appended to an in-memory tail; a commit (``sync``)
pads the tail to block granularity and writes it to the WAL ring on the
device.  Concurrent committers share one device write (group commit) —
the mechanism that makes LSM write throughput block-append-shaped.
"""

from __future__ import annotations

from typing import Optional

from ...host.block import BlockTarget
from ...sim import Event, SimulationError, Simulator
from ...sim.units import PAGE_SIZE
from ..blockfs import Extent
from .encoding import encode_record

__all__ = ["WriteAheadLog"]


class WriteAheadLog:
    """A ring of blocks on the device holding framed records."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockTarget,
        extent: Extent,
        carry_data: bool = False,
    ):
        self.sim = sim
        self.device = device
        self.extent = extent
        self.carry_data = carry_data
        self._head_block = 0  # next ring block to write
        self._tail = bytearray()
        self._staged_records: list[tuple[bytes, bytes, int]] = []
        self._pending_sync: Optional[Event] = None
        self._sync_running = False
        self.appended_records = 0
        self.synced_blocks = 0
        self.group_commits = 0
        #: durable record stream — what post-crash replay reads back
        self.durable_records: list[tuple[bytes, bytes, int]] = []

    def append(self, key: bytes, value: bytes, sequence: int) -> None:
        """Stage one record in the log tail (memory only)."""
        self._tail += encode_record(key, value, sequence)
        self._staged_records.append((key, value, sequence))
        self.appended_records += 1

    def sync(self) -> Event:
        """Durably write the staged tail; joins any in-flight group."""
        if self._pending_sync is None:
            self._pending_sync = self.sim.event(name="wal.sync")
        done = self._pending_sync
        if not self._sync_running:
            self._sync_running = True
            self.sim.spawn(self._sync_proc(), name="wal.syncp")
        return done

    def _sync_proc(self):
        while self._pending_sync is not None:
            done, self._pending_sync = self._pending_sync, None
            blob, self._tail = bytes(self._tail), bytearray()
            batch, self._staged_records = self._staged_records, []
            nblocks = max(1, -(-len(blob) // PAGE_SIZE))
            if nblocks > self.extent.nblocks:
                raise SimulationError("WAL batch exceeds the whole ring")
            payload = (
                blob.ljust(nblocks * PAGE_SIZE, b"\0") if self.carry_data else None
            )
            lba = self._ring_lba(nblocks)
            info = yield self.device.write(lba, nblocks, payload=payload)
            if not info.ok:
                raise SimulationError("WAL write failed")
            self.synced_blocks += nblocks
            self.group_commits += 1
            self.durable_records.extend(batch)
            done.succeed()
        self._sync_running = False

    def _ring_lba(self, nblocks: int) -> int:
        if self._head_block + nblocks > self.extent.nblocks:
            self._head_block = 0  # wrap (old entries are checkpointed)
        lba = self.extent.lba + self._head_block
        self._head_block += nblocks
        return lba
