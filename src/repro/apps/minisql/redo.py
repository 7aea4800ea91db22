"""Redo log with group commit (the InnoDB ib_logfile role).

Commits append structured redo records and sync the log ring; multiple
committing transactions share one device write.  Durability ordering —
redo reaches the device before the touched pages do — is what the
checkpointer relies on and what the tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...host.block import BlockTarget
from ...sim import Event, SimulationError, Simulator
from ...sim.units import PAGE_SIZE
from ..blockfs import Extent

__all__ = ["RedoRecord", "RedoLog"]

_RECORD_OVERHEAD = 24  # header bytes per record on disk


@dataclass(frozen=True)
class RedoRecord:
    """One durable log record with its logical redo/undo images."""
    lsn: int
    txn_id: int
    page_id: int
    op: str  # "insert" | "update" | "delete" | "commit"
    payload_bytes: int
    #: logical redo/undo images (ARIES-lite): what to reapply on
    #: recovery and how to roll a loser transaction back
    table: Optional[str] = None
    key: object = None
    after: Optional[dict] = None  # row (insert) / changes (update)
    before: Optional[dict] = None  # pre-image (update/delete)


class RedoLog:
    """Ring of log blocks with LSN tracking and group commit."""

    def __init__(self, sim: Simulator, device: BlockTarget, extent: Extent):
        self.sim = sim
        self.device = device
        self.extent = extent
        self._next_lsn = 1
        self._staged: list[RedoRecord] = []
        self._staged_bytes = 0
        self._head_block = 0
        self._pending: Optional[Event] = None
        self._running = False
        self.durable_lsn = 0
        #: the durable content of the log — what recovery reads back
        self.durable_records: list[RedoRecord] = []
        self.synced_blocks = 0
        self.group_commits = 0
        self.records_written = 0

    def append(self, txn_id: int, page_id: int, op: str, payload_bytes: int,
               table: Optional[str] = None, key: object = None,
               after: Optional[dict] = None,
               before: Optional[dict] = None) -> RedoRecord:
        record = RedoRecord(self._next_lsn, txn_id, page_id, op, payload_bytes,
                            table=table, key=key, after=after, before=before)
        self._next_lsn += 1
        self._staged.append(record)
        self._staged_bytes += payload_bytes + _RECORD_OVERHEAD
        return record

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def sync(self) -> Event:
        """Make all staged records durable (group commit)."""
        if self._pending is None:
            self._pending = self.sim.event(name="redo.sync")
        done = self._pending
        if not self._running:
            self._running = True
            self.sim.spawn(self._sync_proc(), name="redo.syncp")
        return done

    def _sync_proc(self):
        while self._pending is not None:
            done, self._pending = self._pending, None
            batch, self._staged = self._staged, []
            nbytes, self._staged_bytes = self._staged_bytes, 0
            target_lsn = batch[-1].lsn if batch else self.durable_lsn
            nblocks = max(1, -(-nbytes // PAGE_SIZE))
            if self._head_block + nblocks > self.extent.nblocks:
                self._head_block = 0
            lba = self.extent.lba + self._head_block
            self._head_block += nblocks
            info = yield self.device.write(lba, nblocks)
            if not info.ok:
                raise SimulationError("redo log write failed")
            self.durable_lsn = max(self.durable_lsn, target_lsn)
            self.durable_records.extend(batch)
            self.synced_blocks += nblocks
            self.group_commits += 1
            self.records_written += len(batch)
            done.succeed()
        self._running = False

    def is_durable(self, lsn: int) -> bool:
        return lsn <= self.durable_lsn
