"""Pages and the on-disk page store of the table engine.

Pages are 16 KiB (4 device blocks), InnoDB's default.  Row content is
kept as structured objects; the *disk image* of each page is shadowed
in the page store so buffer-pool evictions and re-reads are faithful
(writeback persists the snapshot, a later miss restores it) while the
device charges real transfer timing.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional

from ...sim import SimulationError

__all__ = ["PAGE_BLOCKS", "PAGE_BYTES", "Page", "PageStore"]

PAGE_BLOCKS = 4
PAGE_BYTES = PAGE_BLOCKS * 4096


@dataclass
class Page:
    """A buffer-pool resident page."""

    page_id: int
    rows: dict[int, dict[str, Any]] = field(default_factory=dict)
    dirty: bool = False
    lsn: int = 0  # last redo record touching this page
    pins: int = 0

    @property
    def slot_count(self) -> int:
        return len(self.rows)


class PageStore:
    """Device-side page images + page allocation for one tablespace."""

    def __init__(self, base_lba: int, max_pages: int):
        self.base_lba = base_lba
        self.max_pages = max_pages
        self._images: dict[int, dict[int, dict[str, Any]]] = {}
        self._next_page = 0
        self.flushed_lsn: dict[int, int] = {}
        #: page -> owning table (the data dictionary; durable metadata)
        self.page_owner: dict[int, str] = {}

    def allocate_page(self, owner: Optional[str] = None) -> int:
        if self._next_page >= self.max_pages:
            raise SimulationError("tablespace full")
        page_id = self._next_page
        self._next_page += 1
        if owner is not None:
            self.page_owner[page_id] = owner
        return page_id

    def image_of(self, page_id: int) -> dict[int, dict[str, Any]]:
        """Last persisted rows of a page (recovery's view of the disk)."""
        return copy.deepcopy(self._images.get(page_id, {}))

    def lba_of(self, page_id: int) -> int:
        return self.base_lba + page_id * PAGE_BLOCKS

    def writeback(self, page: Page) -> None:
        """Persist the page snapshot (called after the device write)."""
        self._images[page.page_id] = copy.deepcopy(page.rows)
        self.flushed_lsn[page.page_id] = page.lsn

    def load(self, page_id: int) -> Page:
        """Materialize a page from its last persisted image."""
        rows = copy.deepcopy(self._images.get(page_id, {}))
        return Page(page_id=page_id, rows=rows, lsn=self.flushed_lsn.get(page_id, 0))
