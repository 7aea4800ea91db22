"""Minimal extent allocator over a raw block device.

Both mini database engines lay their files out through this: a region
of the device is carved into named extents (WAL ring, SSTables, table
pages), allocated bump-style with a free list for recycling — the
filesystem-shaped substrate the paper's applications sit on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..host.block import BlockTarget
from ..sim import SimulationError

__all__ = ["Extent", "ExtentAllocator"]


@dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks on the device."""

    lba: int
    nblocks: int

    @property
    def end(self) -> int:
        return self.lba + self.nblocks


class ExtentAllocator:
    """Bump allocator with size-bucketed free lists."""

    def __init__(self, device: BlockTarget, base_lba: int = 0,
                 limit_blocks: int | None = None):
        self.device = device
        self.base_lba = base_lba
        self.limit = (
            base_lba + limit_blocks if limit_blocks is not None else device.num_blocks
        )
        self._next = base_lba
        self._free: dict[int, list[int]] = {}
        self.allocated_blocks = 0

    def alloc(self, nblocks: int) -> Extent:
        if nblocks <= 0:
            raise SimulationError("extent size must be positive")
        bucket = self._free.get(nblocks)
        if bucket:
            lba = bucket.pop()
        else:
            lba = self._next
            if lba + nblocks > self.limit:
                raise SimulationError(
                    f"device full: cannot allocate {nblocks} blocks"
                )
            self._next += nblocks
        self.allocated_blocks += nblocks
        return Extent(lba, nblocks)

    def free(self, extent: Extent) -> None:
        self._free.setdefault(extent.nblocks, []).append(extent.lba)
        self.allocated_blocks -= extent.nblocks
