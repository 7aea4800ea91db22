"""MiniSQL: a transactional page-based table engine (the MySQL/InnoDB
stand-in for TPC-C and Sysbench).

Write path: row changes dirty buffer-pool pages and append redo
records; COMMIT group-commits the redo log.  A background checkpointer
writes dirty pages back, always behind the redo log (the write-ahead
barrier).  Read path: point/range selects fetch pages through the
buffer pool — misses are the random reads the paper's MySQL workloads
throw at the storage schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ...host.block import BlockTarget
from ...sim import SimulationError, Simulator
from ...sim.units import MS
from ..blockfs import Extent
from .buffer_pool import BufferPool
from .pages import PAGE_BLOCKS, Page, PageStore
from .redo import RedoLog
from .table import Table, TableSchema

__all__ = ["MiniSQLConfig", "Transaction", "MiniSQL"]


@dataclass(frozen=True)
class MiniSQLConfig:
    """Tuning knobs of one MiniSQL instance."""
    buffer_pool_pages: int = 512
    redo_ring_blocks: int = 8192
    #: CPU time per SQL statement (parse/plan/execute) and per row
    #: returned by range scans — what keeps storage latency from being
    #: the whole transaction, as in real MySQL
    stmt_cpu_ns: int = 50_000
    row_cpu_ns: int = 1_500
    checkpoint_interval_ns: int = 10 * MS
    checkpoint_dirty_fraction: float = 0.25
    max_tablespace_pages: int = 1 << 20
    #: fetch buffer-pool misses through an installed pushdown filter
    #: program (requires :meth:`MiniSQL.install_pushdown`)
    pushdown_reads: bool = False


class Transaction:
    """One open transaction."""

    _ids = 0

    def __init__(self, engine: "MiniSQL"):
        Transaction._ids += 1
        self.txn_id = Transaction._ids
        self.engine = engine
        self.sim = engine.sim
        self.writes = 0
        self.reads = 0
        self.last_lsn = 0
        self.committed = False

    # ----------------------------------------------------------------- writes
    def _stmt_cpu(self):
        cpu = self.engine.config.stmt_cpu_ns
        if cpu:
            yield self.sim.timeout(cpu)

    def insert(self, table: str, row: dict[str, Any]):
        yield from self._stmt_cpu()
        tbl = self.engine.table(table)
        page = yield from tbl.insert(row)
        self._log(page, "insert", tbl.schema.avg_row_bytes,
                  table=table, key=row[tbl.schema.key_column], after=dict(row))

    def update(self, table: str, key: Any, changes: dict[str, Any]):
        yield from self._stmt_cpu()
        tbl = self.engine.table(table)
        page, before = yield from tbl.update(key, changes)
        if page is None:
            return False
        self._log(page, "update", tbl.schema.avg_row_bytes // 2,
                  table=table, key=key, after=dict(changes), before=before)
        return True

    def delete(self, table: str, key: Any):
        yield from self._stmt_cpu()
        tbl = self.engine.table(table)
        page, before = yield from tbl.delete(key)
        if page is None:
            return False
        self._log(page, "delete", 32, table=table, key=key, before=before)
        return True

    def _log(self, page: Optional[Page], op: str, nbytes: int,
             table: Optional[str] = None, key: Any = None,
             after: Optional[dict] = None, before: Optional[dict] = None) -> None:
        if self.committed:
            raise SimulationError("write after commit")
        record = self.engine.redo.append(self.txn_id, page.page_id if page else -1,
                                         op, nbytes, table=table, key=key,
                                         after=after, before=before)
        if page is not None:
            page.lsn = record.lsn
        self.last_lsn = record.lsn
        self.writes += 1

    # ------------------------------------------------------------------ reads
    def select(self, table: str, key: Any):
        yield from self._stmt_cpu()
        self.reads += 1
        row = yield from self.engine.table(table).select(key)
        return row

    def select_range(self, table: str, start_key: Any, limit: int = 100):
        yield from self._stmt_cpu()
        self.reads += 1
        rows = yield from self.engine.table(table).select_range(start_key, limit)
        row_cpu = self.engine.config.row_cpu_ns * len(rows)
        if row_cpu:
            yield self.sim.timeout(row_cpu)
        return rows

    # ----------------------------------------------------------------- commit
    def commit(self):
        """Process generator: durable commit via redo group commit."""
        if self.committed:
            return
        self.committed = True
        if self.writes:
            self.engine.redo.append(self.txn_id, -1, "commit", 16)
            yield self.engine.redo.sync()
        self.engine.committed_txns += 1


class MiniSQL:
    """The database engine on one block device."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockTarget,
        config: MiniSQLConfig = MiniSQLConfig(),
        name: str = "minisql",
    ):
        self.sim = sim
        self.device = device
        self.config = config
        self.name = name
        self.redo = RedoLog(sim, device, Extent(0, config.redo_ring_blocks))
        max_pages = min(
            config.max_tablespace_pages,
            (device.num_blocks - config.redo_ring_blocks) // PAGE_BLOCKS,
        )
        self.store = PageStore(base_lba=config.redo_ring_blocks, max_pages=max_pages)
        self.pool = BufferPool(sim, device, self.store, config.buffer_pool_pages)
        self.pool.write_barrier = self._write_barrier
        self.tables: dict[str, Table] = {}
        self.committed_txns = 0
        self._checkpointer = None
        self.pushdown_fetches = 0
        self.pushdown_fallbacks = 0

    # ------------------------------------------------------------------ DDL
    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise SimulationError(f"table {schema.name} exists")
        table = Table(schema, self.pool, self.store)
        self.tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        table = self.tables.get(name)
        if table is None:
            raise SimulationError(f"no table {name}")
        return table

    # ----------------------------------------------------------- transactions
    def begin(self) -> Transaction:
        return Transaction(self)

    # ------------------------------------------------------------- pushdown
    def install_pushdown(self):
        """Process generator: install the page filter program.

        Its windows cover the tablespace only — the redo ring stays
        outside the sandbox — and buffer-pool misses are then fetched
        through one vendor command each instead of a mediated read.
        """
        from ...push import filter_program

        install = getattr(self.device, "install_push_program", None)
        if install is None:
            raise SimulationError(f"{self.name}: device has no pushdown path")
        windows = [[self.config.redo_ring_blocks,
                    self.device.num_blocks - self.config.redo_ring_blocks]]
        info = yield install(filter_program(windows))
        if getattr(info, "ok", False) and self.config.pushdown_reads:
            self.pool.pushdown_read = self._pushdown_fetch
        return info

    def _pushdown_fetch(self, lba: int):
        """Process generator: one page's blocks via the filter program,
        falling back to the mediated read if the device refuses."""
        info = yield self.device.push_exec(
            {"carry": False, "base_lba": lba, "nblocks": PAGE_BLOCKS})
        if info.ok:
            self.pushdown_fetches += 1
            return info
        self.pushdown_fallbacks += 1
        info = yield self.device.read(lba, PAGE_BLOCKS)
        return info

    # -------------------------------------------------------------- WAL rule
    def _write_barrier(self, page: Page):
        """Redo must be durable past the page's LSN before writeback."""
        if page.lsn > self.redo.durable_lsn:
            yield self.redo.sync()

    # ----------------------------------------------------------- checkpointer
    def start_checkpointer(self) -> None:
        if self._checkpointer is not None:
            return
        self._checkpointer = self.sim.process(
            self._checkpoint_loop(), name=f"{self.name}.ckpt"
        )

    def _checkpoint_loop(self):
        while True:
            yield self.sim.timeout(self.config.checkpoint_interval_ns)
            dirty = self.pool.dirty_pages()
            threshold = self.config.checkpoint_dirty_fraction * self.pool.capacity
            if len(dirty) < max(1, threshold):
                continue
            for page in dirty:
                if page.dirty:
                    yield from self.pool.flush_page(page)
