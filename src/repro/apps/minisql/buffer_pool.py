"""Buffer pool: LRU page cache with dirty writeback.

The knob that turns Sysbench/TPC-C into disk workloads: when the
working set exceeds the pool, point selects become random page reads
and the checkpointer's writebacks become random writes.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from ...host.block import BlockTarget
from ...sim import SimulationError, Simulator
from .pages import PAGE_BLOCKS, Page, PageStore

__all__ = ["BufferPool", "BufferPoolStats"]


class BufferPoolStats:
    """Hit/miss/eviction/writeback counters of the pool."""
    __slots__ = ("hits", "misses", "evictions", "dirty_writebacks", "reads", "writes")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_writebacks = 0
        self.reads = 0
        self.writes = 0


class BufferPool:
    """Fixed-capacity LRU of :class:`Page` objects."""

    def __init__(
        self,
        sim: Simulator,
        device: BlockTarget,
        store: PageStore,
        capacity_pages: int,
    ):
        if capacity_pages < 2:
            raise SimulationError("buffer pool needs at least 2 pages")
        self.sim = sim
        self.device = device
        self.store = store
        self.capacity = capacity_pages
        self._pages: OrderedDict[int, Page] = OrderedDict()
        self.stats = BufferPoolStats()
        #: write-ahead barrier: a generator hook run before any dirty
        #: page reaches the device (the engine syncs redo up to page.lsn)
        self.write_barrier = None
        #: optional generator hook replacing the miss read — the engine
        #: points it at an installed pushdown filter program
        self.pushdown_read = None

    def __len__(self) -> int:
        return len(self._pages)

    @property
    def dirty_count(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def dirty_pages(self) -> list[Page]:
        return [p for p in self._pages.values() if p.dirty]

    # ------------------------------------------------------------------ fetch
    def fetch(self, page_id: int):
        """Process generator: pin the page, reading it on a miss."""
        page = self._pages.get(page_id)
        if page is not None:
            self._pages.move_to_end(page_id)
            self.stats.hits += 1
            page.pins += 1
            return page
        self.stats.misses += 1
        yield from self._make_room()
        if self.pushdown_read is not None:
            info = yield from self.pushdown_read(self.store.lba_of(page_id))
        else:
            info = yield self.device.read(self.store.lba_of(page_id), PAGE_BLOCKS)
        if not info.ok:
            raise SimulationError(f"page {page_id} read failed")
        self.stats.reads += 1
        page = self.store.load(page_id)
        page.pins += 1
        self._pages[page_id] = page
        return page

    def unpin(self, page: Page) -> None:
        if page.pins <= 0:
            raise SimulationError(f"unpin of unpinned page {page.page_id}")
        page.pins -= 1

    def _make_room(self):
        while len(self._pages) >= self.capacity:
            victim = self._pick_victim()
            if victim is None:
                raise SimulationError("buffer pool: all pages pinned")
            if victim.dirty:
                yield from self.flush_page(victim)
            self._pages.pop(victim.page_id, None)
            self.stats.evictions += 1

    def _pick_victim(self) -> Optional[Page]:
        for page in self._pages.values():  # LRU order
            if page.pins == 0:
                return page
        return None

    # ------------------------------------------------------------------ flush
    def flush_page(self, page: Page):
        """Process generator: write one dirty page back."""
        if not page.dirty:
            return
        if self.write_barrier is not None:
            yield from self.write_barrier(page)
        info = yield self.device.write(self.store.lba_of(page.page_id), PAGE_BLOCKS)
        if not info.ok:
            raise SimulationError(f"page {page.page_id} writeback failed")
        page.dirty = False
        self.store.writeback(page)
        self.stats.writes += 1
        self.stats.dirty_writebacks += 1

    def flush_all(self):
        """Process generator: checkpoint every dirty page."""
        for page in list(self._pages.values()):
            if page.dirty:
                yield from self.flush_page(page)
